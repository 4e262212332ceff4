"""Figure 11 benchmark: RJ vs CO-RJ under the correlation-aware metric.

Heterogeneous nodes, Zipf workload with FOV focus skew, N = 3..10.
Paper expectation: CO-RJ beats RJ with the gap growing in N (a factor
of 5 at N=10 in the paper; our substrate reproduces the direction and
growth with a smaller factor — see ``tele3d scorecard`` output).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.fig11 import improvement_factor, run_fig11
from repro.experiments.report import series_table
from repro.experiments.settings import ExperimentSetting

from conftest import emit


def test_fig11_correlation(benchmark, bench_samples, bench_seed):
    setting = replace(
        ExperimentSetting(
            workload="zipf", nodes="heterogeneous", samples=bench_samples,
            seed=bench_seed,
        ),
        interest=0.18,
        guarantee_coverage=False,
    )
    result = benchmark.pedantic(
        run_fig11, args=(setting,), rounds=1, iterations=1
    )
    emit("Figure 11 (criticality-weighted rejection, RJ vs CO-RJ)",
         series_table(result, "N"))
    crit_factor = improvement_factor(result)
    eq3_factor = improvement_factor(result, suffix="-eq3")
    emit(
        "Figure 11 improvement factors at N=10",
        f"criticality-loss: {crit_factor:.2f}x   Eq.3 verbatim: {eq3_factor:.2f}x",
    )
    benchmark.extra_info["co_rj"] = [round(v, 4) for v in result.series["co-rj"]]
    benchmark.extra_info["rj"] = [round(v, 4) for v in result.series["rj"]]
    benchmark.extra_info["factor_crit"] = round(crit_factor, 3)
    benchmark.extra_info["factor_eq3"] = round(eq3_factor, 3)
    # Direction: CO-RJ at least matches RJ at the largest N on both metrics.
    assert result.series["co-rj"][-1] <= result.series["rj"][-1] * 1.02
    assert result.series["co-rj-eq3"][-1] <= result.series["rj-eq3"][-1] * 1.02
