"""Figure 10 — PriSM-Q holding core 0 at 80% of stand-alone IPC (16-core)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, fig10_qos
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_fig10_qos(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(16))
    result = benchmark.pedantic(
        lambda: get_experiment("fig10").run(
            options=RunOptions(instructions=INSTRUCTIONS[16]),
            mixes=mixes, tolerance=0.25
        ),
        rounds=1,
        iterations=1,
    )
    report(fig10_qos.format_result(result))
    # Paper: 38 of 41 mixes land at/above the 80% target. At this scale a
    # tail of programs is structurally capped below it (scan footprints
    # bigger than any share + DRAM contention absent from the stand-alone
    # run — see EXPERIMENTS.md), so the bench requires (a) a majority
    # within a 25% band of the target and (b) the controller visibly
    # lifting core 0 above its LRU slowdown in most mixes.
    assert result["achieved"] >= result["total"] / 2
    lifted = sum(1 for r in result["rows"] if r["slowdown"] > r["lru_slowdown"] * 1.05)
    assert lifted >= result["total"] / 2
    for row in result["rows"]:
        assert 0.0 < row["slowdown"] <= 1.1
