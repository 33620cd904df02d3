"""Figure 1 — Motivation.

(a) How UCP's and PIPP's ANTT gains over LRU, and the way-partitioning
fairness scheme's fairness, evolve as core count grows 4 -> 32 (16 for
fairness). The paper's point: way-granular schemes lose their edge at high
core counts.

(b) UCP's IPC throughput on a fixed-capacity cache whose associativity
grows 16 -> 64 -> 256: higher associativity mimics finer-grained
partitioning, and UCP gains more from it than LRU does.
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
    mixes_per_count: Optional[int],
) -> Iterator[Tuple[str, MachineConfig, List[str], List[str]]]:
    """``(panel, machine, mixes, schemes)`` of every grid, in run order.

    Panel ``a`` sweeps core count 4 -> 32 (fairness scheme through 16
    cores); panel ``b`` sweeps associativity 16 -> 256 at 4 and 8 cores
    with ``mixes_per_count`` mixes per count (6 when unset).
    """
    for cores in (4, 8, 16, 32):
        schemes = ["lru", "ucp", "pipp"]
        if cores <= 16:
            schemes.append("fair-waypart")
        yield "a", machine(cores), _mixes(cores, mixes_per_count), schemes
    for assoc in (16, 64, 256):
        for cores in (4, 8):
            mixes = _mixes(cores, mixes_per_count or 6)
            yield "b", machine(cores, assoc=assoc), mixes, ["lru", "ucp"]


def _mixes(cores: int, limit: Optional[int]) -> List[str]:
    mixes = mixes_for_cores(cores)
    return mixes[:limit] if limit else mixes


def specs(instructions=None, mixes_per_count: Optional[int] = None, seed: int = 0):
    """Both panels' runs: (a) scalability, (b) fine-grained partitioning."""
    return [
        pair
        for _, config, mixes, schemes in _grids(mixes_per_count)
        for pair in scheme_grid(
            config, mixes, schemes,
            resolve_instructions(instructions, config.num_cores), seed,
        )
    ]


def summarise(results, mixes_per_count: Optional[int] = None, **_) -> Dict:
    """Fig. 1(a): normalised ANTT of UCP/PIPP and fairness vs core count;
    Fig. 1(b): LRU and UCP throughput at 16/64/256-way associativity."""
    results = iter(results)
    scalability = []
    fine_grain: Dict[int, Dict] = {}
    for panel, config, mixes, schemes in _grids(mixes_per_count):
        grid = by_mix(results, mixes, schemes)
        cores = config.num_cores
        if panel == "a":
            row = {
                "cores": cores,
                "ucp_antt_vs_lru": geomean_ratio(grid, "ucp", "lru"),
                "pipp_antt_vs_lru": geomean_ratio(grid, "pipp", "lru"),
            }
            if cores <= 16:
                row["fairness_waypart"] = geomean(
                    [grid[m]["fair-waypart"].fairness for m in mixes]
                )
                row["fairness_lru"] = geomean([grid[m]["lru"].fairness for m in mixes])
            scalability.append(row)
        else:
            assoc = config.geometry.assoc
            row = fine_grain.setdefault(assoc, {"assoc": assoc})
            for scheme in schemes:
                row[f"{scheme}_throughput_{cores}c"] = geomean(
                    [grid[m][scheme].throughput for m in mixes]
                )
    return {
        "id": "fig1",
        "scalability": {"id": "fig1a", "rows": scalability},
        "fine_grain": {"id": "fig1b", "rows": list(fine_grain.values())},
    }


def format_result(result: Dict) -> str:
    """Paper-style text rendering of the Figure 1 data."""
    parts = ["Figure 1(a): scheme performance vs core count (ANTT vs LRU; lower = better)"]
    rows_a = result["scalability"]["rows"]
    headers = ["cores", "UCP/LRU", "PIPP/LRU", "fair(WP)", "fair(LRU)"]
    table_a = [
        [
            r["cores"],
            r["ucp_antt_vs_lru"],
            r["pipp_antt_vs_lru"],
            r.get("fairness_waypart", float("nan")),
            r.get("fairness_lru", float("nan")),
        ]
        for r in rows_a
    ]
    parts.append(format_table(headers, table_a))
    parts.append("Figure 1(b): IPC throughput vs associativity (geomean)")
    rows_b = result["fine_grain"]["rows"]
    headers_b = ["assoc", "LRU-4c", "UCP-4c", "LRU-8c", "UCP-8c"]
    table_b = [
        [
            r["assoc"],
            r["lru_throughput_4c"],
            r["ucp_throughput_4c"],
            r["lru_throughput_8c"],
            r["ucp_throughput_8c"],
        ]
        for r in rows_b
    ]
    parts.append(format_table(headers_b, table_b))
    return "\n".join(parts)
