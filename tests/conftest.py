"""Shared fixtures: deterministic RNGs, small sessions and problems.

Also hosts the ``--runslow`` gate: tests marked ``slow`` or ``stress``
are skipped by default so the tier-1 loop stays fast; ``pytest
--runslow`` (as ``scripts/ci.sh`` does for the full run) enables them.
"""

from __future__ import annotations

import pytest

from repro.core.problem import ForestProblem
from repro.session.capacity import UniformCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow or stress",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    if config.getoption("--runslow"):
        return
    gate = pytest.mark.skip(reason="slow/stress test; enable with --runslow")
    for item in items:
        if "slow" in item.keywords or "stress" in item.keywords:
            item.add_marker(gate)


@pytest.fixture
def rng() -> RngStream:
    """A fresh deterministic root stream."""
    return RngStream(1234, label="test")


@pytest.fixture(scope="session")
def tier1_topology():
    """The embedded global backbone (shared; read-only in tests)."""
    return load_backbone("tier1")


@pytest.fixture(scope="session")
def abilene_topology():
    """The embedded Abilene backbone (shared; read-only in tests)."""
    return load_backbone("abilene")


@pytest.fixture
def small_session(tier1_topology):
    """A 4-site uniform-capacity session."""
    return build_session(
        tier1_topology,
        UniformCapacityModel(streams_per_site=6),
        RngStream(7, label="session"),
        SessionConfig(n_sites=4, displays_per_site=2),
    )


@pytest.fixture
def small_problem(small_session):
    """A coverage-workload problem over the small session."""
    workload = CoverageWorkloadModel(interest=0.3).generate(
        small_session, RngStream(11, label="workload")
    )
    return ForestProblem.from_workload(small_session, workload, 200.0)


def complete_cost(n: int, off_diagonal: float = 1.0) -> dict[int, dict[int, float]]:
    """A complete symmetric cost matrix with one off-diagonal value."""
    return {
        i: {j: (0.0 if i == j else off_diagonal) for j in range(n)}
        for i in range(n)
    }


def reference_runtime(spec, **modes):
    """A :class:`ScenarioRuntime` whose server runs the given reference modes.

    ``modes`` are :class:`~repro.pubsub.membership.MembershipServer`
    fields (``problem_assembly``, ``delta_source``, ``drift_mode``) that
    select the reference paths the equivalence suites pin the fast paths
    against.  They are set on ``runtime.server`` before :meth:`run`; the
    constructor runs no round, so every round sees them.
    """
    from repro.scenarios.runtime import ScenarioRuntime

    runtime = ScenarioRuntime(spec)
    for name, value in modes.items():
        if not hasattr(runtime.server, name):
            raise AttributeError(f"MembershipServer has no mode {name!r}")
        setattr(runtime.server, name, value)
    return runtime
