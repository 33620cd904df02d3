"""Figure 6 — PriSM-H with 16 cores on a 16-way cache (cores == ways)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, fig06_cores_eq_ways
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_fig6_cores_equal_ways(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(16))
    result = benchmark.pedantic(
        lambda: get_experiment("fig6").run(
            options=RunOptions(instructions=INSTRUCTIONS[16]), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig06_cores_eq_ways.format_result(result))
    # Way-partitioning is degenerate here (1 way per core is the only
    # choice); PriSM still improves on LRU on geomean (paper: +14.8%).
    assert result["geomean"] < 1.0
