"""Figure 9 — fairness: LRU vs way-partitioning [9] vs PriSM-F (16-core)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, fig09_fairness
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_fig9_fairness(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(16))
    result = benchmark.pedantic(
        lambda: get_experiment("fig9").run(
            options=RunOptions(instructions=INSTRUCTIONS[16]), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig09_fairness.format_result(result))
    g = result["geomean"]
    # PriSM-F improves fairness over both LRU and the way-partitioning
    # fairness scheme (paper: +23.3% over way-partitioning at 16 cores)...
    assert g["prism_f"] > g["lru"]
    assert g["prism_f"] > g["waypart"] * 0.98
    # ...without sacrificing performance (paper: +19% ANTT vs LRU).
    assert g["prism_f_antt_vs_lru"] < 1.05
