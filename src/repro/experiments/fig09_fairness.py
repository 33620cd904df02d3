"""Figure 9 — Fairness of LRU, way-partitioning [9] and PriSM-F (16-core).

Absolute fairness (min/max relative slowdown; higher is better) per
sixteen-core mix, plus the performance side-effect: the paper reports that
PriSM-F's fairness gains come *with* an ANTT improvement (+19% over LRU),
never at its expense.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["lru", "fair-waypart", "prism-f"]


def specs(
    instructions=None, mixes: Optional[List[str]] = None, cores: int = 16, seed: int = 0
):
    return scheme_grid(
        machine(cores), mixes or mixes_for_cores(cores), SCHEMES, instructions, seed
    )


def summarise(results, mixes: Optional[List[str]] = None, cores: int = 16, **_) -> Dict:
    grid = by_mix(iter(results), mixes or mixes_for_cores(cores), SCHEMES)
    rows = []
    for mix, per_scheme in grid.items():
        rows.append(
            {
                "mix": mix,
                "lru": per_scheme["lru"].fairness,
                "waypart": per_scheme["fair-waypart"].fairness,
                "prism_f": per_scheme["prism-f"].fairness,
                "prism_f_antt_vs_lru": per_scheme["prism-f"].antt
                / per_scheme["lru"].antt,
            }
        )
    return {
        "id": "fig9",
        "cores": cores,
        "rows": rows,
        "geomean": {
            "lru": geomean([r["lru"] for r in rows]),
            "waypart": geomean([r["waypart"] for r in rows]),
            "prism_f": geomean([r["prism_f"] for r in rows]),
            "prism_f_antt_vs_lru": geomean([r["prism_f_antt_vs_lru"] for r in rows]),
        },
    }


def format_result(result: Dict) -> str:
    table = [
        [r["mix"], r["lru"], r["waypart"], r["prism_f"], r["prism_f_antt_vs_lru"]]
        for r in result["rows"]
    ]
    g = result["geomean"]
    table.append(["geomean", g["lru"], g["waypart"], g["prism_f"], g["prism_f_antt_vs_lru"]])
    return (
        f"Figure 9: fairness at {result['cores']} cores (higher = better; "
        "last column: PriSM-F ANTT vs LRU, lower = better)\n"
        + format_table(["mix", "LRU", "way-part", "PriSM-F", "ANTT-ratio"], table)
    )
