"""The benchmark's workloads and the measurement of one repetition.

Every workload is a whole scenario driven through the public
:class:`~repro.scenarios.runtime.ScenarioRuntime` API.  A run repeats
the scenario its seed gives, a fresh runtime each time, until the
measuring time is spent: a closed loop, because the simulated clock
stands still while a round computes.  Each repetition times the
runtime's construction (``setup_s``), its ``run()``, and every control
round inside it.  The simulated work is identical in every repetition,
so its round ``i`` can be compared across them.

Why each workload exists is recorded in ``BENCHMARK.json``;
``layers.json`` maps layer metrics to the end-to-end metric and
workload each should move.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.errors import SimulationError
from repro.perf.sweep import reports_equal
from repro.scenarios.library import (
    flash_crowd,
    fov_thrash,
    server_restart_churn,
)
from repro.scenarios.runtime import ScenarioReport, ScenarioRuntime
from repro.scenarios.spec import EventKind, SchedulePhase, ScenarioSpec
from repro.sim.dataplane import make_dataplane
from repro.sim.invariants import InvariantAuditor
from repro.util.rng import RngStream

from spans import SpanLog, patched, traced

#: Pinned array backend: ``TELE3D_BACKEND`` must not switch kernels.
BACKEND = "numpy"
#: Fewest repetitions of the scenario per run (per side of a traced run):
#: each round's time is its minimum over them.
MIN_REPS = 3
#: Runtime constructions timed per untraced repetition (its own and
#: extra ones): ``setup_s`` treats them as slots, like rounds.
SETUPS_PER_REP = 5


def _fov_repair(n: int, seed: int) -> ScenarioSpec:
    base = fov_thrash(n, seed)
    return replace(
        base,
        backbone=f"synthetic-{n}",
        rebuild_policy="incremental",
        backend=BACKEND,
        schedule=(SchedulePhase(EventKind.FOV_CHANGE, 0.0, base.duration_ms, n),),
    )


def _join_rebuild(n: int, seed: int) -> ScenarioSpec:
    base = flash_crowd(n, seed)
    joins, views = base.schedule
    return replace(
        base,
        backbone=f"synthetic-{n}",
        rebuild_policy="always",
        backend=BACKEND,
        schedule=(joins, replace(views, count=n // 4)),
    )


def _chaos_restart(n: int, seed: int) -> ScenarioSpec:
    return replace(
        server_restart_churn(n, seed), backbone=f"synthetic-{n}", backend=BACKEND
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario shape, its size and its checks."""

    name: str
    make_spec: Callable[[int, int], ScenarioSpec]
    n_sites: int
    #: Pool size of the smoke test's tiny variant.
    tiny_sites: int
    audit: bool
    dataplane: bool = False

    def spec(self, seed: int, tiny: bool = False) -> ScenarioSpec:
        return self.make_spec(self.tiny_sites if tiny else self.n_sites, seed)


#: Sizes keep one repetition to 1-2 s, so that a run times every round
#: often enough for its minimum to meet a moment the host was quiet.
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("fov-repair", _fov_repair, n_sites=64, tiny_sites=8, audit=True),
        Workload(
            "join-rebuild",
            _join_rebuild,
            n_sites=64,
            tiny_sites=8,
            audit=False,
            dataplane=True,
        ),
        Workload("chaos-restart", _chaos_restart, n_sites=48, tiny_sites=8, audit=True),
    )
}

#: (name, unit) of the simulated, per-seed deterministic results a run
#: prints; the workloads they apply to fill them in.
SIM_UNITS: dict[str, str] = {
    "rounds": "count",
    "requests_total": "count",
    "rejection_ratio": "ratio",
    "mean_disruption": "ratio",
    "delivery_mean_ms": "ms",
    "convergence_p50_ms": "ms",
    "convergence_p90_ms": "ms",
    "recovery_mean_ms": "ms",
    "detection_mean_ms": "ms",
}


def sim_results(runtime: ScenarioRuntime, report: ScenarioReport) -> dict[str, float]:
    """The run's simulated results (identical for every run of one seed)."""
    sim: dict[str, float] = {
        "rounds": report.rounds,
        "requests_total": report.requests_total,
        "rejection_ratio": report.rejection_ratio,
        "mean_disruption": report.mean_disruption,
    }
    if runtime.dataplane:
        sim["delivery_mean_ms"] = report.dataplane_mean_latency_ms
    if runtime.service is not None:
        convergence = [r.convergence_ms for r in runtime.service.converged_rounds()]
        sim["convergence_p50_ms"] = statistics.median(convergence)
        sim["convergence_p90_ms"] = _percentile(convergence, 90)
        sim["recovery_mean_ms"] = report.mean_recovery_ms
        sim["detection_mean_ms"] = report.mean_detection_ms
    return sim


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


@dataclass
class Repetition:
    """One scenario execution: construction, ``run()`` and its checks."""

    setup_s: float
    run_s: float
    #: Host seconds of each control round (see ``round_p50_ms``).
    round_s: list[float]
    #: ``run()`` split at the start of every round; sums to ``run_s``.
    segment_s: list[float]
    sim: dict[str, float]
    failures: list[str]


def check(runtime: ScenarioRuntime, report: ScenarioReport) -> list[str]:
    """Correctness checks of one finished repetition; returns the failures."""
    failures = []
    if report.audit is not None and not report.audit.ok:
        failures.append(f"audit: {len(report.audit.violations)} violations")
    if runtime.service is not None:
        if report.unrecovered_suspicions:
            failures.append(f"{report.unrecovered_suspicions} unrecovered suspicions")
        if report.unrecovered_reports:
            failures.append(f"{report.unrecovered_reports} unrecovered reports")
    final = runtime.server.last_result
    if final is None:
        failures.append("no round was built")
    else:
        violations = InvariantAuditor().audit_build(final, event="final")
        if violations:
            failures.append(f"final forest: {violations[0].render()}")
    return failures


def cross_check_dataplane(runtime: ScenarioRuntime) -> list[str]:
    """Replay the final forest on the event-driven plane; it must match the fast one."""
    spec = runtime.spec
    final = runtime.server.last_result
    if final is None:
        return ["no round was built"]
    reports = [
        make_dataplane(
            runtime.session,
            final.forest,
            RngStream(spec.seed, label="perfbench/dataplane"),
            latency_bound_ms=spec.latency_bound_ms,
            plane=plane,
        ).run(runtime.dataplane_duration_ms)
        for plane in ("event", "fast")
    ]
    if not reports_equal(*reports):
        return ["event-driven and fast data planes disagree on the final forest"]
    return []


@contextmanager
def _round_clock(starts: list[float], ends: list[float]) -> Iterator[None]:
    """Record when each ``MembershipServer.build_overlay`` call starts and ends.

    Every control round, synchronous or asynchronous, makes exactly one
    such call, so its starts split ``run()`` into one segment per round.
    ``ScenarioRuntime.round_wall_s`` covers the synchronous loop only; an
    asynchronous round's host work is its ``build_overlay`` call.
    """

    def wrap(build_overlay):
        def timed(*args, **kwargs):
            starts.append(time.perf_counter())
            try:
                return build_overlay(*args, **kwargs)
            finally:
                ends.append(time.perf_counter())

        return timed

    with patched([("repro.pubsub.membership", "MembershipServer.build_overlay", wrap)]):
        yield


def repeat(
    workload: Workload,
    spec: ScenarioSpec,
    log: SpanLog | None = None,
) -> tuple[Repetition, ScenarioRuntime]:
    """Construct and run the scenario once, under ``log``'s tracing if given."""
    starts: list[float] = []
    ends: list[float] = []
    with ExitStack() as stack:
        if log is not None:
            stack.enter_context(traced(log))
        stack.enter_context(_round_clock(starts, ends))
        setup_s, runtime = _construct(workload, spec)
        start = time.perf_counter()
        try:
            report = runtime.run()
        except SimulationError as error:
            # The strict auditor raises on the first violated invariant.
            run_s = time.perf_counter() - start
            return Repetition(setup_s, run_s, [], [], {}, [f"run raised: {error}"]), runtime
        end = time.perf_counter()
    if spec.async_control:
        round_s = [e - s for s, e in zip(starts, ends)]
    else:
        round_s = list(runtime.round_wall_s)
    # Segment i runs from round i's start to round i+1's; the first also
    # holds run()'s set-up before round 0, the last its tail after it.
    bounds = [start, *starts[1:], end]
    segment_s = [b - a for a, b in zip(bounds, bounds[1:])]
    repetition = Repetition(
        setup_s,
        end - start,
        round_s,
        segment_s,
        sim_results(runtime, report),
        check(runtime, report),
    )
    return repetition, runtime


def _construct(workload: Workload, spec: ScenarioSpec) -> tuple[float, ScenarioRuntime]:
    """Seconds to construct a runtime, and the runtime.

    The previous repetition's garbage (cyclic, hundreds of MB after a
    chaos run) is collected first, so its collection is not timed here.
    """
    gc.collect()
    start = time.perf_counter()
    runtime = ScenarioRuntime(
        spec, audit=workload.audit, strict=workload.audit, dataplane=workload.dataplane
    )
    return time.perf_counter() - start, runtime


def time_setup(workload: Workload, spec: ScenarioSpec) -> float:
    """Seconds to construct one runtime (which is then discarded)."""
    return _construct(workload, spec)[0]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
