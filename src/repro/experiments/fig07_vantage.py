"""Figure 7 — PriSM vs Vantage on set-associative caches.

Both contenders run the extended-UCP allocation policy over the coarse
timestamp-LRU baseline (Section 5.3's level playing field); ANTT is
normalised to the unmanaged timestamp-LRU cache. Paper: PriSM wins most
quad mixes (all but Q12/Q17/Q19/Q20) and every 16-core mix, by 7.8% and
11.8% on average.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["tslru", "vantage", "prism-ucpx"]


def _panels(quad_mixes: Optional[List[str]], sixteen_mixes: Optional[List[str]]):
    """``(key, cores, mixes)`` of the two panels, in run order."""
    return [
        ("quad", 4, quad_mixes or mixes_for_cores(4)),
        ("sixteen", 16, sixteen_mixes or mixes_for_cores(16)),
    ]


def specs(instructions=None, quad_mixes=None, sixteen_mixes=None, seed: int = 0):
    return [
        pair
        for _, cores, mixes in _panels(quad_mixes, sixteen_mixes)
        for pair in scheme_grid(machine(cores), mixes, SCHEMES, instructions, seed)
    ]


def summarise(results, quad_mixes=None, sixteen_mixes=None, **_) -> Dict:
    results = iter(results)
    summary = {"id": "fig7"}
    for key, cores, mixes in _panels(quad_mixes, sixteen_mixes):
        summary[key] = _panel(cores, by_mix(results, mixes, SCHEMES))
    return summary


def _panel(cores: int, grid) -> Dict:
    rows = []
    for mix, per_scheme in grid.items():
        base = per_scheme["tslru"].antt
        rows.append(
            {
                "mix": mix,
                "vantage": per_scheme["vantage"].antt / base,
                "prism": per_scheme["prism-ucpx"].antt / base,
                "vantage_forced": per_scheme["vantage"].forced_evictions or 0,
            }
        )
    return {
        "cores": cores,
        "rows": rows,
        "geomean": {
            "vantage": geomean([r["vantage"] for r in rows]),
            "prism": geomean([r["prism"] for r in rows]),
        },
    }


def format_result(result: Dict) -> str:
    parts = []
    for key, title in (("quad", "Figure 7 quad-core"), ("sixteen", "Figure 7 sixteen-core")):
        panel = result[key]
        parts.append(f"{title} — ANTT normalised to timestamp-LRU (lower = better)")
        table = [[r["mix"], r["vantage"], r["prism"]] for r in panel["rows"]]
        table.append(["geomean", panel["geomean"]["vantage"], panel["geomean"]["prism"]])
        parts.append(format_table(["mix", "Vantage", "PriSM"], table))
    return "\n".join(parts)
