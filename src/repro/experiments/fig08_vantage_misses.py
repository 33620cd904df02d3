"""Figure 8 — Per-benchmark misses: PriSM normalised to Vantage (quad).

For every quad mix, each benchmark's miss count under PriSM (extended UCP
over timestamp LRU) divided by its misses under Vantage. Paper: PriSM cuts
misses for at least three of the four programs in every quad mix.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["vantage", "prism-ucpx"]


def specs(instructions=None, mixes: Optional[List[str]] = None, seed: int = 0):
    return scheme_grid(
        machine(4), mixes or mixes_for_cores(4), SCHEMES, instructions, seed
    )


def summarise(results, mixes: Optional[List[str]] = None, **_) -> Dict:
    grid = by_mix(iter(results), mixes or mixes_for_cores(4), SCHEMES)
    rows = []
    improved_counts = []
    for mix, per_scheme in grid.items():
        vantage = per_scheme["vantage"]
        prism = per_scheme["prism-ucpx"]
        improved = 0
        for core, name in enumerate(prism.benchmarks):
            v_misses = max(1, vantage.cores[core].misses)
            ratio = prism.cores[core].misses / v_misses
            if ratio <= 1.0:
                improved += 1
            rows.append(
                {"mix": mix, "core": core, "benchmark": name, "miss_ratio": ratio}
            )
        improved_counts.append(improved)
    return {
        "id": "fig8",
        "rows": rows,
        "mixes_with_3plus_improved": sum(1 for c in improved_counts if c >= 3),
        "total_mixes": len(grid),
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["benchmark"], r["miss_ratio"]] for r in result["rows"]]
    summary = (
        f"mixes where >=3 of 4 programs improved: "
        f"{result['mixes_with_3plus_improved']}/{result['total_mixes']}"
    )
    return (
        "Figure 8: misses under PriSM normalised to Vantage (<1 = fewer misses)\n"
        + format_table(["mix", "benchmark", "PriSM/Vantage"], table, width=14)
        + "\n"
        + summary
    )
