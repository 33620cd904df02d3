"""Figure 4 — Final cache occupancy under PriSM-H vs UCP (quad-core).

Each program's occupancy fraction is sampled the moment it retires its
instruction target (programs finish at different times, so the fractions
need not sum to 1 — exactly as the paper notes). The samples come from
the :mod:`repro.telemetry` recorder's per-core finish events — the runs
execute with ``telemetry=True`` and the figure reads the recorded
:class:`~repro.telemetry.FinishSample` occupancies. The paper's narrative
examples: PriSM gives ``168.wupwise`` more space in Q1, favours
``175.vpr``/``471.omnetpp`` over the streamers in Q4, and rewards
``179.art``/``471.omnetpp`` in Q7/Q11/Q12.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import by_mix, format_table, scheme_grid
from repro.experiments.configs import machine
from repro.workloads.mixes import mixes_for_cores

__all__ = ["specs", "summarise", "format_result"]

SCHEMES = ["prism-h", "ucp"]


def specs(instructions=None, mixes: Optional[List[str]] = None, seed: int = 0):
    return scheme_grid(
        machine(4), mixes or mixes_for_cores(4), SCHEMES, instructions, seed,
        telemetry=True,
    )


def summarise(results, mixes: Optional[List[str]] = None, **_) -> Dict:
    grid = by_mix(iter(results), mixes or mixes_for_cores(4), SCHEMES)
    rows = []
    for mix, per_scheme in grid.items():
        prism = per_scheme["prism-h"].telemetry
        ucp = per_scheme["ucp"].telemetry
        for core, name in enumerate(per_scheme["prism-h"].benchmarks):
            rows.append(
                {
                    "mix": mix,
                    "core": core,
                    "benchmark": name,
                    "prism_occupancy": prism.occupancy_at_finish(core),
                    "ucp_occupancy": ucp.occupancy_at_finish(core),
                }
            )
    return {"id": "fig4", "rows": rows}


def format_result(result: Dict) -> str:
    table = [
        [r["mix"], r["benchmark"], r["prism_occupancy"], r["ucp_occupancy"]]
        for r in result["rows"]
    ]
    return "Figure 4: occupancy at finish (fraction of cache)\n" + format_table(
        ["mix", "benchmark", "PriSM-H", "UCP"], table, width=14
    )
