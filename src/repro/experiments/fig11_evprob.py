"""Figure 11 — Stability of eviction probabilities under PriSM-H (quad).

Per-benchmark mean and standard deviation of ``E_i`` across all interval
recomputations, computed from the :mod:`repro.telemetry` interval trace:
each run records every installed distribution at its interval boundary,
and :meth:`RunTelemetry.probability_stats` accumulates them with the
same running-sum formula the scheme uses internally — so the numbers are
bit-equal to the scheme's own reporting. The paper's point: the standard
deviation is small — the probabilities settle, so the control loop is
stable rather than thrashing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]


def specs(instructions=None, mixes: Optional[List[str]] = None, seed: int = 0):
    return scheme_grid(
        machine(4), mixes or mixes_for_cores(4), ["prism-h"], instructions, seed,
        telemetry=True,
    )


def summarise(results, mixes: Optional[List[str]] = None, **_) -> Dict:
    grid = by_mix(iter(results), mixes or mixes_for_cores(4), ["prism-h"])
    rows = []
    recompute_counts = []
    for mix, per_scheme in grid.items():
        result = per_scheme["prism-h"]
        trace = result.telemetry
        stats = trace.probability_stats()
        recompute_counts.append(trace.num_intervals)
        for core, name in enumerate(result.benchmarks):
            rows.append(
                {
                    "mix": mix,
                    "benchmark": name,
                    "mean": stats[core]["mean"],
                    "std": stats[core]["std"],
                }
            )
    return {
        "id": "fig11",
        "rows": rows,
        "recomputations_min": min(recompute_counts) if recompute_counts else 0,
        "recomputations_max": max(recompute_counts) if recompute_counts else 0,
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["benchmark"], r["mean"], r["std"]] for r in result["rows"]]
    return (
        "Figure 11: eviction-probability mean/std per benchmark (quad-core PriSM-H); "
        f"recomputations per mix: {result['recomputations_min']}-"
        f"{result['recomputations_max']}\n"
        + format_table(["mix", "benchmark", "mean", "std"], table, width=14)
    )
