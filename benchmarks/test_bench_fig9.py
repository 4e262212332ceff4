"""Figure 9 benchmark: granularity analysis (N=10, uniform, random).

Sweeps Gran-LTF's granularity from 1 (== LTF) toward F (== RJ) and
reports mean rejection per granularity.  The paper observes a generally
decreasing curve; our reproduction finds a *flat* curve (see the fig9
claims in ``tele3d scorecard`` output), so the check here is only that
the spectrum stays within a tight band around its endpoints rather than
degrading.
"""

from __future__ import annotations

from repro.experiments.fig9 import run_fig9
from repro.experiments.report import series_table
from repro.experiments.settings import ExperimentSetting

from conftest import emit


def test_fig9_granularity(benchmark, bench_samples, bench_seed):
    setting = ExperimentSetting(
        workload="random", nodes="uniform", samples=bench_samples,
        seed=bench_seed,
    )
    result = benchmark.pedantic(
        run_fig9, args=(setting,), rounds=1, iterations=1
    )
    emit("Figure 9 (granularity vs rejection, N=10)",
         series_table(result, "granularity"))
    values = result.series["gran-ltf"]
    benchmark.extra_info["granularities"] = result.xs
    benchmark.extra_info["rejection"] = [round(v, 4) for v in values]
    assert all(0.0 <= v <= 1.0 for v in values)
    # The spectrum endpoints (LTF-like vs RJ-like) stay within 15 % of
    # each other — the paper's 20 % improvement is not reproduced, but
    # neither does large granularity degrade materially.
    assert values[-1] <= values[0] * 1.15
