"""Figure 4 — per-program occupancy at finish: PriSM-H vs UCP (quad)."""

from conftest import INSTRUCTIONS, mixes_subset

from repro.experiments import RunOptions, fig04_occupancy
from repro.experiments.registry import get_experiment
from repro.workloads.mixes import mixes_for_cores


def test_fig4_occupancy(benchmark, report):
    mixes = mixes_subset(mixes_for_cores(4))
    result = benchmark.pedantic(
        lambda: get_experiment("fig4").run(
            options=RunOptions(instructions=INSTRUCTIONS[4]), mixes=mixes
        ),
        rounds=1,
        iterations=1,
    )
    report(fig04_occupancy.format_result(result))
    rows = result["rows"]
    assert len(rows) == 4 * len(mixes)
    # Occupancies are valid fractions and neither scheme leaves the cache
    # essentially unused by the mix.
    for row in rows:
        assert 0.0 <= row["prism_occupancy"] <= 1.0
        assert 0.0 <= row["ucp_occupancy"] <= 1.0
    by_mix = {}
    for row in rows:
        by_mix.setdefault(row["mix"], []).append(row)
    for mix_rows in by_mix.values():
        assert sum(r["prism_occupancy"] for r in mix_rows) > 0.5
