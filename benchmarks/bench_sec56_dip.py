"""Section 5.6 — PriSM-H over a DIP baseline; TA-DIP comparison (quad)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, sec56_dip
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_sec56_dip_replacement(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(4))
    result = benchmark.pedantic(
        lambda: get_experiment("sec56").run(
            options=RunOptions(instructions=INSTRUCTIONS[4]), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(sec56_dip.format_result(result))
    g = result["geomean"]
    # Paper: PriSM-H over DIP improves on plain DIP by 8.9%; TA-DIP lands
    # about level with DIP.
    assert g["prism_h_dip"] < 1.0
    assert abs(g["tadip"] - 1.0) < 0.08
