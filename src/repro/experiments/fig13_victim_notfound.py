"""Figure 13 — Victim-not-found rate vs interval length (quad).

The fraction of replacements where the sampled victim core held no block
in the accessed set, for interval lengths of N/2, N and 2N misses (the
paper sweeps 32K/64K/128K at N=64K blocks — the same x2 ladder around the
default W = N). Paper: the fraction falls from 3.8% to 2.5% as the
interval grows, because a longer interval smooths the sampled distribution
toward steady-state occupancy.

This figure characterises the *paper's* mechanism, so the runs use the
paper-literal configuration (first-candidate fallback, no bias feedback);
the repo's default resampling fallback deliberately changes what a
"not-found" event does, which would make the measurement incomparable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import format_table
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]


def _interval(multiplier: float) -> int:
    return max(1, int(machine(4).geometry.num_blocks * multiplier))


def specs(
    instructions=None,
    mixes: Optional[List[str]] = None,
    interval_multipliers: Sequence[float] = (0.5, 1.0, 2.0),
    seed: int = 0,
):
    """Per mix, one paper-literal PriSM-H run per interval length."""
    config = machine(4)
    return [
        (config, RunSpec(
            mix=mix, scheme="prism-h", seed=seed, instructions=instructions,
            scheme_kwargs={
                "interval_len": _interval(mult),
                "fallback": "paper",
                "bias_correction": False,
            },
        ))
        for mix in mixes or mixes_for_cores(4)
        for mult in interval_multipliers
    ]


def summarise(
    results,
    mixes: Optional[List[str]] = None,
    interval_multipliers: Sequence[float] = (0.5, 1.0, 2.0),
    **_,
) -> Dict:
    results = iter(results)
    rows = []
    for mix in mixes or mixes_for_cores(4):
        row = {"mix": mix}
        for mult in interval_multipliers:
            row[f"w{mult}"] = next(results).victim_not_found_rate
        rows.append(row)
    averages = {
        f"w{mult}": sum(r[f"w{mult}"] for r in rows) / len(rows)
        for mult in interval_multipliers
    }
    return {
        "id": "fig13",
        "num_blocks": machine(4).geometry.num_blocks,
        "interval_multipliers": list(interval_multipliers),
        "rows": rows,
        "average": averages,
    }


def format_result(result: Dict) -> str:
    mults = result["interval_multipliers"]
    n = result["num_blocks"]
    headers = ["mix"] + [f"W={int(n * m)}" for m in mults]
    table = [[r["mix"]] + [r[f"w{m}"] for m in mults] for r in result["rows"]]
    table.append(["average"] + [result["average"][f"w{m}"] for m in mults])
    return (
        "Figure 13: fraction of replacements with no block of the selected core\n"
        + format_table(headers, table)
    )
