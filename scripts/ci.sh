#!/usr/bin/env bash
# Lightweight CI for the reproduction repo.
#
#   scripts/ci.sh          tier-1 tests + one audited scenario smoke check
#   scripts/ci.sh --full   additionally enables the slow/stress test matrix
#
# Exits non-zero on any test failure or invariant violation.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

EXTRA=()
if [[ "${1:-}" == "--full" ]]; then
    EXTRA+=(--runslow)
fi

echo "== tier-1 tests (python array backend) =="
TELE3D_BACKEND=python python -m pytest -x -q "${EXTRA[@]}"

# The numpy kernels are pinned bit-identical to the python fallback, so
# the whole suite must pass on both; skip the second pass only when the
# environment has no numpy at all.
if python -c "import numpy" >/dev/null 2>&1; then
    echo
    echo "== tier-1 tests (numpy array backend) =="
    TELE3D_BACKEND=numpy python -m pytest -x -q "${EXTRA[@]}"
else
    echo
    echo "ci.sh: numpy not importable, skipping numpy-backend pass"
fi

echo
echo "== audited scenario smoke check =="
python -m repro.cli scenario run flash-crowd --sites 6 --seed 7 --audit --strict

if [[ "${1:-}" == "--full" ]]; then
    echo
    echo "== audited async-control scenario (mid-build joins under delay) =="
    python -m repro.cli scenario run flash-crowd --sites 8 --seed 7 \
        --control-delay-ms 50 --debounce-ms 15 --audit --strict

    echo
    echo "== audited high-churn scenario on the diffed-assembly path =="
    # Incremental repair resolves the server's auto assembly to diffed.
    python -m repro.cli scenario run mixed-churn --sites 16 --seed 7 \
        --rebuild-policy incremental --audit --strict

    echo
    echo "== chaos gate: 20%-lossy jittered join burst, zero unrecovered =="
    python -m repro.cli scenario run lossy-flash-crowd --sites 8 --seed 7 \
        --audit --strict --max-unrecovered 0

    echo
    echo "== chaos gate: heartbeat-detected failures under 20% loss =="
    # Seed chosen so every suspicion raised before the horizon also
    # heals before it (seed 7 ends with one in-flight re-admission).
    python -m repro.cli scenario run heartbeat-rolling-failure --sites 8 \
        --seed 11 --audit --strict --max-unrecovered 0

    echo
    echo "== chaos gate: site partition + heal (zombie re-admission) =="
    python -m repro.cli scenario run partitioned-churn --sites 8 --seed 7 \
        --audit --strict --max-unrecovered 0

    echo
    echo "== data-chaos gate: 20%-lossy dissemination, NACK/repair recovers all =="
    python -m repro.cli scenario run lossy-dissemination --sites 8 --seed 7 \
        --audit --strict --max-unrecovered 0 --max-unrecovered-frames 0

    echo
    echo "== server-crash gate: cold restart mid-join-burst, full soft-state refresh =="
    python -m repro.cli scenario run server-crash-flash-crowd --sites 8 \
        --seed 7 --audit --strict --max-unrecovered 0 --max-unrecovered-reports 0

    echo
    echo "== server-crash gate: double restart under churn, warm checkpoint restore =="
    python -m repro.cli scenario run server-restart-churn --sites 8 \
        --seed 7 --audit --strict --max-unrecovered 0 --max-unrecovered-reports 0

    echo
    echo "== server-crash gate: outage inside a site partition window =="
    python -m repro.cli scenario run server-crash-partition-overlap --sites 8 \
        --seed 7 --audit --strict --max-unrecovered 0 --max-unrecovered-reports 0

    echo
    echo "== perf smoke (fast plane must beat the event-driven plane) =="
    python -m repro.cli perf smoke --sites 12

    echo
    echo "== perf ratchet (no >2x regression vs last committed baseline) =="
    if [[ "${TELE3D_SKIP_RATCHET:-0}" == "1" ]]; then
        # Escape hatch for machines much slower than the baseline's
        # recorder; the committed thresholds assume comparable hardware.
        echo "ci.sh: TELE3D_SKIP_RATCHET=1, skipping perf ratchet"
    else
        # Committed baselines only (stray local sweeps must not gate);
        # -V: version sort, so BENCH_PR10 ranks after BENCH_PR9.
        BASELINE=$(git ls-files 'BENCH_*.json' | sort -V | tail -1 || true)
        if [[ -z "${BASELINE}" ]]; then
            echo "ci.sh: no committed BENCH_*.json baseline found" >&2
            exit 1
        fi
        CI_BENCH=$(mktemp /tmp/tele3d_bench_ci.XXXXXX.json)
        trap 'rm -f "${CI_BENCH}"' EXIT
        # Scenario timings stay on so the ratcheted
        # scenario-round(incremental|hybrid) series are present on both
        # sides; N=1024 rides along so the headline O(churn) round
        # latency is gated, not just the small sizes.
        python -m repro.cli perf sweep --sizes 16,32,1024 --label CI \
            --output "${CI_BENCH}" --no-event-plane
        python -m repro.cli perf compare "${BASELINE}" "${CI_BENCH}" --ratchet
    fi
fi

echo
echo "ci.sh: all checks passed"
