"""Headroom — per-scheme miss gap to the offline Belady/MIN optimum.

Not a figure from the paper: a bound the paper could not report. For each
mix, one post-L1 trace is recorded from an unmanaged-LRU run on the
hierarchy machine (private inclusive L1s in front of the shared LLC);
every scheme then replays *that same trace* through a fresh cache, so
hit counts are directly comparable, and Belady/MIN on the recorded
future gives the optimal hit count any demand-fill policy could have
achieved. The gap between a scheme's misses and Belady's is the
remaining headroom replacement/partitioning could still claw back.

Every row is certified by :func:`repro.check.belady.assert_belady_bound`
— the run aborts with an ``InvariantViolation`` if any online policy
appears to beat the offline optimum (which would mean the simulator is
broken, not that the policy is clever).

The experiment never calls ``run_workload``: it records and replays its
own traces, so :func:`specs` declares no runs and :func:`summarise` does
all the work (it ignores the empty ``results``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.cache import SharedCache
from repro.cache.replacement.lru import LRUPolicy
from repro.check.belady import assert_belady_bound
from repro.cpu.system import MultiCoreSystem
from repro.experiments.common import format_table
from repro.experiments.configs import machine
from repro.experiments.runner import _machine_memory
from repro.util.rng import derive_seed
from repro.workloads.mixes import mixes_for_cores
from repro.workloads.registry import resolve_workload

__all__ = ["specs", "summarise", "format_result", "DEFAULT_SCHEMES"]

#: Schemes replayed against the optimum by default: the unmanaged
#: baselines (true LRU, the PLRU hardware approximation, DIP) and the
#: PriSM variants whose headroom the bound is really about.
DEFAULT_SCHEMES = ["lru", "plru", "dip", "prism-h", "prism-f"]


def specs(**_budget):
    """No shared runs: every trace is recorded by :func:`summarise`."""
    return []


def summarise(
    results,
    instructions: Optional[int] = None,
    mixes: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
    seed: int = 0,
) -> Dict:
    """Record one trace per mix and replay every scheme plus Belady on it."""
    config = machine(4, l1="inclusive")
    mix_names = mixes or mixes_for_cores(4)
    scheme_names = schemes or list(DEFAULT_SCHEMES)
    budget = instructions or config.instructions
    rows = []
    traces = {}
    for mix in mix_names:
        source = resolve_workload(mix)
        profiles = source.profiles()
        cache = SharedCache(config.geometry, config.num_cores, policy=LRUPolicy())
        system = MultiCoreSystem(
            cache,
            profiles,
            seed=derive_seed(seed, "headroom", mix),
            scale=config.workload_scale,
            memory=_machine_memory(config),
            l1_geometry=config.l1_geometry,
            inclusive=config.l1_inclusive,
            record_trace=True,
        )
        system.run(budget)
        trace = system.recorded_trace
        traces[mix] = len(trace)
        results = assert_belady_bound(
            trace,
            config.geometry,
            scheme_names,
            seed=derive_seed(seed, "headroom-replay", mix),
        )
        optimal = results["belady"]
        for scheme in ["belady"] + [s for s in scheme_names if s != "belady"]:
            replay = results[scheme]
            gap = replay.total_misses - optimal.total_misses
            rows.append(
                {
                    "mix": mix,
                    "scheme": scheme,
                    "hits": replay.total_hits,
                    "misses": replay.total_misses,
                    "miss_gap": gap,
                    "gap_pct": (
                        100.0 * gap / optimal.total_misses
                        if optimal.total_misses
                        else 0.0
                    ),
                }
            )
    return {
        "id": "headroom",
        "rows": rows,
        "trace_lengths": traces,
        "machine": str(config),
        "schemes": scheme_names,
    }


def format_result(result: Dict) -> str:
    table = [
        [r["mix"], r["scheme"], r["hits"], r["misses"], r["miss_gap"], r["gap_pct"]]
        for r in result["rows"]
    ]
    return (
        "Headroom: misses vs the offline Belady/MIN optimum on one shared "
        "recorded post-L1 trace per mix\n"
        f"(machine {result['machine']}; bound certified on every row)\n"
        + format_table(
            ["mix", "scheme", "hits", "misses", "miss-gap", "gap-%"],
            table,
            width=12,
        )
    )
