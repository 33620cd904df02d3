"""Figure 6 — PriSM-H when cores == ways (16 cores on a 16-way cache).

Way-partitioning degenerates here (one way per core is the only option, so
the paper does not evaluate it); PriSM still partitions at block
granularity. Paper: PriSM-H beats LRU on every mix, +14.8% on average.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["lru", "prism-h"]


def _machine():
    # The paper's 8MB 16-way LLC, scaled like every other machine.
    return machine(16, assoc=16, llc_bytes=8 << 20)


def specs(instructions=None, mixes: Optional[List[str]] = None, seed: int = 0):
    return scheme_grid(
        _machine(), mixes or mixes_for_cores(16), SCHEMES, instructions, seed
    )


def summarise(results, mixes: Optional[List[str]] = None, **_) -> Dict:
    grid = by_mix(iter(results), mixes or mixes_for_cores(16), SCHEMES)
    rows = [
        {"mix": mix, "prism_vs_lru": per_scheme["prism-h"].antt / per_scheme["lru"].antt}
        for mix, per_scheme in grid.items()
    ]
    return {
        "id": "fig6",
        "geometry": str(_machine().geometry),
        "rows": rows,
        "geomean": geomean([r["prism_vs_lru"] for r in rows]),
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["prism_vs_lru"]] for r in result["rows"]]
    table.append(["geomean", result["geomean"]])
    return (
        f"Figure 6: PriSM-H on {result['geometry']} with 16 cores (ANTT vs LRU)\n"
        + format_table(["mix", "PriSM-H/LRU"], table)
    )
