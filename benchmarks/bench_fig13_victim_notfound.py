"""Figure 13 — victim-not-found fraction vs interval length (quad)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, fig13_victim_notfound
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_fig13_victim_not_found(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(4))
    result = benchmark.pedantic(
        lambda: get_experiment("fig13").run(
            options=RunOptions(instructions=INSTRUCTIONS[4] * 2), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig13_victim_notfound.format_result(result))
    averages = result["average"]
    # All rates are small fractions of replacements (paper: 2.5-3.8% at its
    # scale; higher here because the scaled sets hold fewer blocks/core).
    for value in averages.values():
        assert 0.0 <= value < 0.35
    # The trend the paper reports: the longest interval has a not-found
    # rate no worse than the shortest.
    mults = sorted(result["interval_multipliers"])
    assert averages[f"w{mults[-1]}"] <= averages[f"w{mults[0]}"] + 0.02
