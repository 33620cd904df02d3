"""Section 5.6 — PriSM over a DIP baseline (replacement-policy agnosticism).

PriSM's core-selection step layers on any replacement policy; the paper
demonstrates this with DIP (which lacks the stack property, so UCP cannot
use it). Quad-core, all ANTTs normalised to the unmanaged DIP cache.
Paper: PriSM-H over DIP gains 8.9%; TA-DIP lands about level with DIP;
both DIP variants beat LRU.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["dip", "prism-h-dip", "tadip", "lru"]


def specs(instructions=None, mixes: Optional[List[str]] = None, seed: int = 0):
    return scheme_grid(
        machine(4), mixes or mixes_for_cores(4), SCHEMES, instructions, seed
    )


def summarise(results, mixes: Optional[List[str]] = None, **_) -> Dict:
    grid = by_mix(iter(results), mixes or mixes_for_cores(4), SCHEMES)
    rows = []
    for mix, per_scheme in grid.items():
        dip_antt = per_scheme["dip"].antt
        rows.append(
            {
                "mix": mix,
                "prism_h_dip": per_scheme["prism-h-dip"].antt / dip_antt,
                "tadip": per_scheme["tadip"].antt / dip_antt,
                "lru": per_scheme["lru"].antt / dip_antt,
            }
        )
    return {
        "id": "sec56",
        "rows": rows,
        "geomean": {
            key: geomean([r[key] for r in rows]) for key in ("prism_h_dip", "tadip", "lru")
        },
    }


def format_result(result: Dict) -> str:
    table = [[r["mix"], r["prism_h_dip"], r["tadip"], r["lru"]] for r in result["rows"]]
    g = result["geomean"]
    table.append(["geomean", g["prism_h_dip"], g["tadip"], g["lru"]])
    return (
        "Section 5.6: ANTT normalised to unmanaged DIP (lower = better)\n"
        + format_table(["mix", "PriSM-H+DIP", "TA-DIP", "LRU"], table)
    )
