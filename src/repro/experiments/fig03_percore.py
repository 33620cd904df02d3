"""Figure 3 — Per-workload ANTT: PriSM-H vs UCP vs PIPP.

(a) the 21 quad-core workloads, (b) the 14 thirtytwo-core workloads; all
ANTTs normalised to LRU (lower is better). The paper's reading: PriSM-H
beats UCP on all 32-core mixes and most quad mixes, with Q7 the headline
(~50% over LRU); PIPP wins a few cache-friendly quad mixes (Q5/Q6/Q8/Q14)
but collapses at 32 cores.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["lru", "prism-h", "ucp", "pipp"]


def _panels(quad_mixes: Optional[List[str]], big_mixes: Optional[List[str]]):
    """``(key, cores, mixes)`` of the two panels, in run order."""
    return [
        ("quad", 4, quad_mixes or mixes_for_cores(4)),
        ("thirtytwo", 32, big_mixes or mixes_for_cores(32)),
    ]


def specs(instructions=None, quad_mixes=None, big_mixes=None, seed: int = 0):
    return [
        pair
        for _, cores, mixes in _panels(quad_mixes, big_mixes)
        for pair in scheme_grid(machine(cores), mixes, SCHEMES, instructions, seed)
    ]


def summarise(results, quad_mixes=None, big_mixes=None, **_) -> Dict:
    results = iter(results)
    summary = {"id": "fig3"}
    for key, cores, mixes in _panels(quad_mixes, big_mixes):
        summary[key] = _panel(cores, by_mix(results, mixes, SCHEMES))
    return summary


def _panel(cores: int, grid) -> Dict:
    rows = []
    for mix, per_scheme in grid.items():
        lru_antt = per_scheme["lru"].antt
        rows.append(
            {
                "mix": mix,
                "prism_h": per_scheme["prism-h"].antt / lru_antt,
                "ucp": per_scheme["ucp"].antt / lru_antt,
                "pipp": per_scheme["pipp"].antt / lru_antt,
            }
        )
    summary = {
        scheme: geomean([r[scheme] for r in rows]) for scheme in ("prism_h", "ucp", "pipp")
    }
    return {"cores": cores, "rows": rows, "geomean": summary}


def format_result(result: Dict) -> str:
    parts = []
    for key, title in (("quad", "Figure 3(a): quad-core"), ("thirtytwo", "Figure 3(b): 32-core")):
        panel = result[key]
        parts.append(f"{title} — ANTT normalised to LRU (lower = better)")
        table = [[r["mix"], r["prism_h"], r["ucp"], r["pipp"]] for r in panel["rows"]]
        table.append(
            ["geomean", panel["geomean"]["prism_h"], panel["geomean"]["ucp"], panel["geomean"]["pipp"]]
        )
        parts.append(format_table(["mix", "PriSM-H", "UCP", "PIPP"], table))
    return "\n".join(parts)
