"""Figure 12 — K-bit eviction probabilities vs floating point (quad).

PriSM-H with probabilities stored as 6/8/10/12-bit integers, ANTT
normalised to the full-precision run. Paper: indistinguishable from float,
so 6-8 bits suffice in hardware.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import format_table
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.metrics import geomean
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]


def specs(
    instructions=None,
    mixes: Optional[List[str]] = None,
    bit_widths: Sequence[int] = (6, 8, 10, 12),
    seed: int = 0,
):
    """Per mix: the float PriSM-H reference, then one run per bit width."""
    config = machine(4)
    return [
        (config, RunSpec(
            mix=mix, scheme="prism-h", seed=seed, instructions=instructions,
            scheme_kwargs=scheme_kwargs,
        ))
        for mix in mixes or mixes_for_cores(4)
        for scheme_kwargs in [None] + [{"probability_bits": b} for b in bit_widths]
    ]


def summarise(
    results,
    mixes: Optional[List[str]] = None,
    bit_widths: Sequence[int] = (6, 8, 10, 12),
    **_,
) -> Dict:
    results = iter(results)
    rows = []
    for mix in mixes or mixes_for_cores(4):
        reference = next(results)
        row = {"mix": mix}
        for bits in bit_widths:
            row[f"bits{bits}"] = next(results).antt / reference.antt
        rows.append(row)
    summary = {
        f"bits{bits}": geomean([r[f"bits{bits}"] for r in rows]) for bits in bit_widths
    }
    return {"id": "fig12", "bit_widths": list(bit_widths), "rows": rows, "geomean": summary}


def format_result(result: Dict) -> str:
    bits = result["bit_widths"]
    headers = ["mix"] + [f"{b}-bit" for b in bits]
    table = [[r["mix"]] + [r[f"bits{b}"] for b in bits] for r in result["rows"]]
    table.append(["geomean"] + [result["geomean"][f"bits{b}"] for b in bits])
    return (
        "Figure 12: ANTT of K-bit PriSM-H normalised to float PriSM-H (1.0 = identical)\n"
        + format_table(headers, table)
    )
