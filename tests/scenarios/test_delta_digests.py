"""Audit-digest equivalence for the O(churn) control-round paths.

Two pure-cost rewrites ride the round path: diffed assembly may consume
the server's dirty-registration delta (``delta_source="dirty"``) instead
of rescanning the workload's groups, and hybrid may gate its scratch
verification behind the repairer's drift estimate
(``drift_mode="estimate"``) instead of re-solving every round.  Neither
is allowed to change a single structural fact of any round: each must be
digest-identical to its reference path (``scan`` / ``measure``) across
the scenario matrix, on both array backends.

The tier-1 subset keeps the fast loop fast; ``--runslow`` enables the
full six-scenario x seed x algorithm x backend matrix from the PR's
acceptance criteria.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.backend import numpy_available
from repro.scenarios import get_scenario
from tests.conftest import reference_runtime

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable"
)

ALL_SCENARIOS = (
    "capacity-starvation",
    "flash-crowd",
    "fov-thrash",
    "mass-leave",
    "mixed-churn",
    "rolling-failure",
)

BACKENDS = ("python", "numpy")


def _digest(
    name: str, seed: int, algorithm: str, backend: str, rebuild_policy: str,
    **modes,
):
    spec = replace(
        get_scenario(name, sites=6, seed=seed),
        algorithm=algorithm,
        backend=backend,
        rebuild_policy=rebuild_policy,
    )
    report = reference_runtime(spec, **modes).run()
    assert report.audit is not None and report.audit.ok
    return report.audit.digest


def _delta_source_digest(
    name: str, seed: int, algorithm: str, backend: str, delta_source: str
):
    return _digest(
        name,
        seed,
        algorithm,
        backend,
        rebuild_policy="incremental",
        problem_assembly="diffed",
        delta_source=delta_source,
    )


def _drift_mode_digest(
    name: str, seed: int, algorithm: str, backend: str, drift_mode: str
):
    return _digest(
        name,
        seed,
        algorithm,
        backend,
        rebuild_policy="hybrid",
        drift_mode=drift_mode,
    )


@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ["flash-crowd", "mixed-churn"])
def test_dirty_delta_matches_scan_tier1(name, algorithm):
    assert _delta_source_digest(
        name, 13, algorithm, "auto", "dirty"
    ) == _delta_source_digest(name, 13, algorithm, "auto", "scan")


@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ["capacity-starvation", "mixed-churn"])
def test_estimated_drift_matches_measured_tier1(name, algorithm):
    # capacity-starvation is the load-bearing cell: the only scenario
    # whose hybrid guard ever fails, i.e. where a missed verification
    # would actually change the adopted forest.
    assert _drift_mode_digest(
        name, 13, algorithm, "auto", "estimate"
    ) == _drift_mode_digest(name, 13, algorithm, "auto", "measure")


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [13, 29])
@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_dirty_delta_matches_scan_full_matrix(name, algorithm, seed, backend):
    assert _delta_source_digest(
        name, seed, algorithm, backend, "dirty"
    ) == _delta_source_digest(name, seed, algorithm, backend, "scan")


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [13, 29])
@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_estimated_drift_matches_measured_full_matrix(
    name, algorithm, seed, backend
):
    assert _drift_mode_digest(
        name, seed, algorithm, backend, "estimate"
    ) == _drift_mode_digest(name, seed, algorithm, backend, "measure")
