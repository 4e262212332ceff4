"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fov-repair --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced repetitions, prints the
per-layer metrics of the traced ones plus the tracing overhead, and
writes the last traced repetition's spans to ``.perfbench/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
(scenario repetitions run), ``failed`` (repetitions that failed a
check) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = ROOT / ".perfbench"


def _single_threaded() -> None:
    """One process, no threads: keep numpy's BLAS pool to the calling thread."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"


def _import_program() -> None:
    """Put the program's sources on the path; fail without them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path[:0] = [str(src), str(HERE)]


#: (name, unit) of the end-to-end metrics, in ``BENCHMARK.json`` order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_p50_ms": "ms",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics but left out of the JSON line: the
#: tail is set by the few heaviest rounds of the seed's scenario, so it
#: spreads too much from seed to seed to carry a regression bound.
TAIL_UNITS = {"round_p90_ms": "ms"}

#: Unit of every per-layer metric the traced run derives.
LAYER_UNITS = {
    "topology.load_backbone_s": "s",
    "session.build_session_s": "s",
    "rp.publish_ms": "ms",
    "rp.apply_directive_ms": "ms",
    "rp.calls": "count",
    "membership.register_ms": "ms",
    "membership.register_calls": "count",
    "membership.registrations_applied_ratio": "ratio",
    "membership.build_overlay_ms": "ms",
    "membership.build_overlay_self_ms": "ms",
    "problem.assemble_ms": "ms",
    "problem.assemblies_scratch": "count",
    "problem.assemblies_diffed": "count",
    "builder.build_ms": "ms",
    "builder.build_calls": "count",
    "incremental.repair_ms": "ms",
    "incremental.repair_calls": "count",
    "incremental.repair_adopted_ratio": "ratio",
    "incremental.churn_rate_ms": "ms",
    "audit.audit_round_ms": "ms",
    "audit.rounds": "count",
    "dataplane.run_ms": "ms",
    "dataplane.runs": "count",
    "dataplane.frames_delivered": "count",
    "dataplane.us_per_frame": "us",
    "faults.transmit_ms": "ms",
    "faults.messages_sent": "count",
    "faults.messages_dropped": "count",
    "engine.events": "count",
    "engine.self_ms": "ms",
    "service.retransmits": "count",
    "service.retransmit_giveups": "count",
    "service.refresh_replays": "count",
    "service.reports_parked": "count",
    "runtime.self_ms": "ms",
    "trace.rounds_per_s_untraced": "1/s",
    "trace.rounds_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
}

#: Layer times that read exactly 0 on every run of a workload that
#: bypasses the layer.  They are printed, but kept out of the JSON line
#: whose timings must be measured values; their call counts stay in it.
ZERO_ON_BYPASS = {
    "incremental.repair_ms",
    "audit.audit_round_ms",
    "dataplane.run_ms",
    "dataplane.us_per_frame",
    "faults.transmit_ms",
}
PER_LAYER = [name for name in LAYER_UNITS if name not in ZERO_ON_BYPASS]


def layer_metrics(log, runtime, report) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""

    def ms(*names: str) -> float:
        return log.busy_s(*names) * 1e3

    server = runtime.server
    service = runtime.service
    registrations = server.registrations_applied + server.registrations_skipped
    repair_calls = log.count("incremental.repair")
    frames = report.dataplane_frames_delivered
    dataplane_ms = ms("dataplane.run")
    publish = ("rp.advertisement", "rp.aggregate_subscription")
    register = ("membership.register_advertisement", "membership.register_subscription")
    return {
        "topology.load_backbone_s": log.busy_s("topology.load_backbone"),
        "session.build_session_s": log.busy_s("session.build_session"),
        "rp.publish_ms": ms(*publish),
        "rp.apply_directive_ms": ms("rp.apply_directive"),
        "rp.calls": log.count(*publish, "rp.apply_directive"),
        "membership.register_ms": ms(*register),
        "membership.register_calls": log.count(*register),
        "membership.registrations_applied_ratio": (
            server.registrations_applied / registrations if registrations else 0.0
        ),
        "membership.build_overlay_ms": ms("membership.build_overlay"),
        "membership.build_overlay_self_ms": log.self_s("membership.build_overlay") * 1e3,
        "problem.assemble_ms": ms("problem.from_workload", "problem.evolve_delta"),
        "problem.assemblies_scratch": server.assemblies_scratch,
        "problem.assemblies_diffed": server.assemblies_diffed,
        "builder.build_ms": ms("builder.build"),
        "builder.build_calls": log.count("builder.build"),
        "incremental.repair_ms": ms("incremental.repair"),
        "incremental.repair_calls": repair_calls,
        "incremental.repair_adopted_ratio": (
            server.repairs / repair_calls if repair_calls else 0.0
        ),
        "incremental.churn_rate_ms": ms("incremental.churn_rate"),
        "audit.audit_round_ms": ms("audit.audit_round"),
        "audit.rounds": log.count("audit.audit_round"),
        "dataplane.run_ms": dataplane_ms,
        "dataplane.runs": log.count("dataplane.run"),
        "dataplane.frames_delivered": frames,
        "dataplane.us_per_frame": dataplane_ms * 1e3 / frames if frames else 0.0,
        "faults.transmit_ms": ms("faults.transmit"),
        "faults.messages_sent": service.link.sent if service else 0,
        "faults.messages_dropped": service.link.dropped if service else 0,
        "engine.events": runtime.sim.processed_events,
        "engine.self_ms": log.self_s("engine.run") * 1e3,
        "service.retransmits": service.retransmits if service else 0,
        "service.retransmit_giveups": service.retransmit_giveups if service else 0,
        "service.refresh_replays": service.refresh_replays if service else 0,
        "service.reports_parked": service.reports_parked if service else 0,
        "runtime.self_ms": log.self_s("runtime.run") * 1e3,
    }


def minima(series: list[list[float]]) -> list[float]:
    """Each slot's fastest time over the run's repetitions.

    ``series`` holds one list of times per repetition.  Repetitions replay
    identical work, so slot ``i`` (a control round, or a set-up) of every
    repetition does the same computation; its fastest time is the one
    other tenants of the host slowed least.
    """
    return [min(times) for times in zip(*series)]


def rounds_per_s(repetitions) -> float:
    segments = minima([r.segment_s for r in repetitions])
    return len(segments) / sum(segments)


def end_to_end(repetitions, setups: list[list[float]], peak_mb: float) -> dict[str, float]:
    """End-to-end metrics over every repetition of an untraced run.

    ``setups`` holds the set-up times of each repetition, one per slot.
    """
    round_ms = [s * 1e3 for s in minima([r.round_s for r in repetitions])]
    return {
        "setup_s": statistics.median(minima(setups)),
        "round_p50_ms": statistics.median(round_ms),
        "round_p90_ms": statistics.quantiles(round_ms, n=10)[8],
        "rounds_per_s": rounds_per_s(repetitions),
        "peak_rss_mb": peak_mb,
    }


def sim_digest(sim: dict[str, float]) -> str:
    """Short digest of the simulated results, to compare runs of one seed."""
    text = json.dumps(sim, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def layer_values(layers: list[dict[str, float]]) -> dict[str, float]:
    """Counts of the first traced repetition, median times over all of them."""
    return {
        name: layers[0][name]
        if LAYER_UNITS[name] == "count"
        else statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }


def main() -> int:
    _single_threaded()
    _import_program()
    import workloads
    from spans import SpanLog

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test pool sizes (not a measurement)"
    )
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    spec = workload.spec(args.seed, tiny=args.tiny)
    untraced: list = []
    traced: list = []
    layers: list[dict[str, float]] = []
    log = SpanLog()
    setups: list[list[float]] = []
    attempted = failed = 0
    failures: list[str] = []
    start = time.perf_counter()
    # Closed loop: repetitions until the measuring time is spent, set-ups
    # included.  A traced run alternates untraced and traced repetitions.
    while (
        len(untraced) < workloads.MIN_REPS
        or (args.trace and len(traced) < workloads.MIN_REPS)
        or time.perf_counter() - start < args.seconds
    ):
        tracing = bool(args.trace) and len(traced) < len(untraced)
        earlier = untraced + traced
        if tracing:
            log.clear()
        repetition, runtime = workloads.repeat(workload, spec, log if tracing else None)
        if not earlier and workload.dataplane:
            repetition.failures += workloads.cross_check_dataplane(runtime)
        if earlier and (repetition.sim, len(repetition.round_s)) != (
            earlier[0].sim,
            len(earlier[0].round_s),
        ):
            repetition.failures.append(f"seed {spec.seed} ran differently when repeated")
        attempted += 1
        failed += bool(repetition.failures)
        failures += [f for f in repetition.failures if f not in failures]
        if not repetition.sim:
            break
        (traced if tracing else untraced).append(repetition)
        if tracing:
            layers.append(layer_metrics(log, runtime, runtime.report))
        del runtime
        if not args.trace:
            extra = workloads.SETUPS_PER_REP - 1
            setups.append(
                [repetition.setup_s] + [workloads.time_setup(workload, spec) for _ in range(extra)]
            )
    if not untraced or (args.trace and not traced):
        print(f"perfbench: {args.workload} failed: {'; '.join(failures)}", file=sys.stderr)
        return 1

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{attempted} repetitions in {time.perf_counter() - start:.2f} s"
    )
    sim = untraced[0].sim
    print(f"sim of scenario seed {spec.seed} (deterministic, digest {sim_digest(sim)}):")
    for name, value in sim.items():
        print(f"  {name:24s} {value!r} {workloads.SIM_UNITS[name]}")
    if args.trace:
        values = layer_values(layers)
        values["trace.rounds_per_s_untraced"] = rounds_per_s(untraced)
        values["trace.rounds_per_s_traced"] = rounds_per_s(traced)
        values["trace.overhead_ratio"] = (
            1.0 - values["trace.rounds_per_s_traced"] / values["trace.rounds_per_s_untraced"]
        )
        units, metrics_out = LAYER_UNITS, PER_LAYER
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        log.dump(trace_file)
        print(
            f"per layer (median of {len(traced)} traced repetitions; spans in "
            f"{trace_file.relative_to(ROOT)}):"
        )
    else:
        values = end_to_end(untraced, setups, workloads.peak_rss_mb())
        units, metrics_out = END_TO_END_UNITS | TAIL_UNITS, list(END_TO_END_UNITS)
        runs = sorted(r.run_s for r in untraced)
        print(
            f"end to end (per-round minima over {len(runs)} repetitions, "
            f"run() {runs[0]:.3f}-{runs[-1]:.3f} s; {workloads.SETUPS_PER_REP} set-ups each):"
        )
    for name, value in values.items():
        print(f"  {name:40s} {value!r} {units[name]}")
    for failure in failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in metrics_out},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
