"""Figure 7 — PriSM vs Vantage ANTT on timestamp-LRU (quad + 16-core)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, fig07_vantage
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_fig7_vantage(benchmark, report):
    quad = mixes_subset(mixes_for_cores(4))
    sixteen = mixes_subset(mixes_for_cores(16), limit=3)
    result = benchmark.pedantic(
        lambda: get_experiment("fig7").run(
            options=RunOptions(instructions=INSTRUCTIONS[4]),
            quad_mixes=quad, sixteen_mixes=sixteen
        ),
        rounds=1,
        iterations=1,
    )
    report(fig07_vantage.format_result(result))
    # Paper: PriSM beats set-associative Vantage by 7.8% (quad) and 11.8%
    # (16-core) on geomean; require the win in both panels.
    assert result["quad"]["geomean"]["prism"] < result["quad"]["geomean"]["vantage"] * 1.02
    assert result["sixteen"]["geomean"]["prism"] < result["sixteen"]["geomean"]["vantage"]
