"""End-to-end arithmetic of a run, on hand-built repetitions."""

from types import SimpleNamespace

import pytest

import run


def _repetition(round_s, segment_s):
    return SimpleNamespace(round_s=round_s, segment_s=segment_s)


def test_each_slot_keeps_its_fastest_repetition():
    repetitions = [
        _repetition([0.010, 0.050, 0.020], [0.02, 0.06, 0.03]),
        _repetition([0.030, 0.040, 0.020], [0.01, 0.07, 0.03]),
    ]
    assert run.minima([r.round_s for r in repetitions]) == [0.010, 0.040, 0.020]
    assert run.rounds_per_s(repetitions) == pytest.approx(3 / (0.01 + 0.06 + 0.03))


def test_end_to_end_reports_medians_of_the_minima():
    round_s = [0.001 * (i + 1) for i in range(20)]
    repetitions = [
        _repetition(round_s, [0.01] * 20),
        _repetition([2 * s for s in round_s], [0.02] * 20),
    ]
    setups = [[0.5, 0.1, 0.3], [0.4, 0.2, 0.6]]
    values = run.end_to_end(repetitions, setups=setups, peak_mb=40.0)
    assert values["setup_s"] == 0.3
    assert values["round_p50_ms"] == pytest.approx(10.5)
    assert values["round_p90_ms"] == pytest.approx(18.9)
    assert values["rounds_per_s"] == pytest.approx(100.0)
    assert values["peak_rss_mb"] == 40.0
    assert set(values) == set(run.END_TO_END_UNITS) | set(run.TAIL_UNITS)
