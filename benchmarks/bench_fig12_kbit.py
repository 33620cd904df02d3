"""Figure 12 — K-bit eviction probabilities vs floating point (quad)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, fig12_kbit
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_fig12_kbit_probabilities(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(4), limit=3)
    result = benchmark.pedantic(
        lambda: get_experiment("fig12").run(
            options=RunOptions(instructions=INSTRUCTIONS[4]), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig12_kbit.format_result(result))
    # Paper: 6-12 bit fixed point performs like float (ratios ~= 1).
    for bits in result["bit_widths"]:
        assert abs(result["geomean"][f"bits{bits}"] - 1.0) < 0.06
