"""Figure 5 — Fine- vs coarse-grained enforcement of the *same* policy.

Algorithm 1's hit-max targets drive both PriSM's eviction probabilities
and a way-partitioner (targets rounded to whole ways). Sixteen-core
workloads; ANTT normalised to LRU. The paper: PriSM wins on every mix.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["lru", "prism-h", "waypart-hitmax"]


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
        lru_antt = per_scheme["lru"].antt
        rows.append(
            {
                "mix": mix,
                "prism": per_scheme["prism-h"].antt / lru_antt,
                "waypart": per_scheme["waypart-hitmax"].antt / lru_antt,
            }
        )
    return {
        "id": "fig5",
        "cores": cores,
        "rows": rows,
        "geomean": {
            "prism": geomean([r["prism"] for r in rows]),
            "waypart": geomean([r["waypart"] for r in rows]),
        },
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["prism"], r["waypart"]] for r in result["rows"]]
    table.append(["geomean", result["geomean"]["prism"], result["geomean"]["waypart"]])
    return (
        f"Figure 5: Alg. 1 enforced by PriSM vs way-partitioning "
        f"({result['cores']}-core; ANTT vs LRU)\n"
        + format_table(["mix", "PriSM", "way-part"], table)
    )
