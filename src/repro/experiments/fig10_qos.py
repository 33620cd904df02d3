"""Figure 10 — PriSM-Q: holding core 0 at 80% of its stand-alone IPC.

For each sixteen-core mix, core 0's achieved slowdown
(``IPC^MP / IPC^SP``) under PriSM-Q with an 80% target. The paper's
reading: most mixes land close to 0.8; cache-insensitive programs sit
*above* the target because 80% is below their worst-case slowdown (they
barely depend on the LLC at all).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["lru", "prism-q"]


def specs(
    instructions=None,
    mixes: Optional[List[str]] = None,
    cores: int = 16,
    target_fraction: float = 0.8,
    tolerance: float = 0.05,  # read by summarise
    seed: int = 0,
):
    return scheme_grid(
        machine(cores), mixes or mixes_for_cores(cores), SCHEMES, instructions, seed,
        scheme_kwargs={"prism-q": {"target_ipc_fraction": target_fraction}},
    )


def summarise(
    results,
    mixes: Optional[List[str]] = None,
    cores: int = 16,
    target_fraction: float = 0.8,
    tolerance: float = 0.05,
    **_,
) -> Dict:
    grid = by_mix(iter(results), mixes or mixes_for_cores(cores), SCHEMES)
    rows = []
    achieved = 0
    for mix, per_scheme in grid.items():
        result = per_scheme["prism-q"]
        slowdown = result.slowdown(0)
        # "Achieved" = at or above target (a tolerance band below counts as
        # close-enough, mirroring the paper's 38-of-41 reading).
        ok = slowdown >= target_fraction * (1.0 - tolerance)
        achieved += ok
        rows.append(
            {
                "mix": mix,
                "benchmark": result.benchmarks[0],
                "slowdown": slowdown,
                "lru_slowdown": per_scheme["lru"].slowdown(0),
                "target": target_fraction,
                "achieved": ok,
            }
        )
    return {
        "id": "fig10",
        "cores": cores,
        "target_fraction": target_fraction,
        "rows": rows,
        "achieved": achieved,
        "total": len(rows),
    }


def format_result(result: Dict) -> str:
    table = [
        [
            r["mix"],
            r["benchmark"],
            r["slowdown"],
            r["lru_slowdown"],
            "yes" if r["achieved"] else "NO",
        ]
        for r in result["rows"]
    ]
    return (
        f"Figure 10: PriSM-Q core-0 slowdown vs {result['target_fraction']:.0%} target "
        f"({result['achieved']}/{result['total']} achieved)\n"
        + format_table(
            ["mix", "core0-bench", "slowdown", "LRU-slowdn", "achieved"], table, width=14
        )
    )
