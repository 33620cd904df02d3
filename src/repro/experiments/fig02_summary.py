"""Figure 2 — PriSM performance summary across core counts.

Left panel: PriSM-H's ANTT gain over LRU (alongside UCP and PIPP) at
4/8/16/32 cores. Right panel: PriSM-F's fairness (alongside LRU and the
way-partitioning fairness scheme) at 4/8/16 cores. Paper headline numbers:
PriSM-H gains 17.9/16.5/18.7/12.7% over LRU; PriSM-F beats way-partitioned
fairness by 1.4/13.1/23.3%.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.experiments.common import (
    by_mix,
    format_table,
    geomean_ratio,
    resolve_instructions,
    scheme_grid,
)
from repro.experiments.configs import MachineConfig, machine
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]


def _grids(
    mixes_per_count: Optional[int], core_counts
) -> Iterator[Tuple[MachineConfig, List[str], List[str]]]:
    for cores in core_counts:
        mixes = mixes_for_cores(cores)
        if mixes_per_count:
            mixes = mixes[:mixes_per_count]
        schemes = ["lru", "prism-h", "ucp", "pipp"]
        if cores <= 16:
            schemes += ["prism-f", "fair-waypart"]
        yield machine(cores), mixes, schemes


def specs(
    instructions=None,
    mixes_per_count: Optional[int] = None,
    core_counts=(4, 8, 16, 32),
    seed: int = 0,
):
    return [
        pair
        for config, mixes, schemes in _grids(mixes_per_count, core_counts)
        for pair in scheme_grid(
            config, mixes, schemes,
            resolve_instructions(instructions, config.num_cores), seed,
        )
    ]


def summarise(
    results, mixes_per_count: Optional[int] = None, core_counts=(4, 8, 16, 32), **_
) -> Dict:
    results = iter(results)
    rows = []
    for config, mixes, schemes in _grids(mixes_per_count, core_counts):
        grid = by_mix(results, mixes, schemes)
        cores = config.num_cores
        row = {
            "cores": cores,
            "prism_h_antt_vs_lru": geomean_ratio(grid, "prism-h", "lru"),
            "ucp_antt_vs_lru": geomean_ratio(grid, "ucp", "lru"),
            "pipp_antt_vs_lru": geomean_ratio(grid, "pipp", "lru"),
        }
        if cores <= 16:
            row["fairness_lru"] = geomean([grid[m]["lru"].fairness for m in mixes])
            row["fairness_prism_f"] = geomean(
                [grid[m]["prism-f"].fairness for m in mixes]
            )
            row["fairness_waypart"] = geomean(
                [grid[m]["fair-waypart"].fairness for m in mixes]
            )
            row["prism_f_antt_vs_lru"] = geomean_ratio(grid, "prism-f", "lru")
        rows.append(row)
    return {"id": "fig2", "rows": rows}


def format_result(result: Dict) -> str:
    parts = ["Figure 2: PriSM summary (ANTT ratios: lower = better; fairness: higher = better)"]
    headers = [
        "cores",
        "PriSM-H/LRU",
        "UCP/LRU",
        "PIPP/LRU",
        "F(LRU)",
        "F(PriSM-F)",
        "F(waypart)",
    ]
    table = []
    for r in result["rows"]:
        table.append(
            [
                r["cores"],
                r["prism_h_antt_vs_lru"],
                r["ucp_antt_vs_lru"],
                r["pipp_antt_vs_lru"],
                r.get("fairness_lru", float("nan")),
                r.get("fairness_prism_f", float("nan")),
                r.get("fairness_waypart", float("nan")),
            ]
        )
    parts.append(format_table(headers, table))
    return "\n".join(parts)
