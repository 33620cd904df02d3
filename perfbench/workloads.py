"""The benchmark's four workloads: one closed-loop iteration each, plus the
output checks and the canonical result digest.

An iteration is what a user pays on a fresh invocation: the stand-alone
baseline memo starts empty, simulated caches start empty, runs go one at
a time in this process, and the seed reaches the simulator only as
``seed=``. Each workload is chosen to make a different layer do the
work; README.md in this directory gives the reasons and predictions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Workload",
    "WORKLOADS",
    "Outcome",
    "setup",
    "run_iteration",
    "digest",
    "check_outcome",
    "accesses",
    "ws_ratio",
]


@dataclass(frozen=True)
class Workload:
    """One named workload: the mix, the machine and the schemes it runs."""

    name: str
    mix: str
    cores: int
    schemes: Tuple[str, ...]
    #: Per-core instruction target (timing runs) or total request budget
    #: (trace-replay runs), as ``instructions=`` means to ``run_workload``.
    instructions: int
    machine: Dict[str, object] = field(default_factory=dict)
    clusters: Optional[int] = None
    #: Run through ``run_specs`` into a fresh ``ResultStore``, then make a
    #: resume pass that the store serves.
    campaign: bool = False
    #: ``(experiment, metric)`` of the paper's value for the PriSM-H gain
    #: in :mod:`repro.experiments.paper_values`, where the paper has one.
    paper_claim: Optional[Tuple[str, str]] = None

    @property
    def unmanaged(self) -> str:
        """The scheme ``sim_ws_ratio`` divides by."""
        return self.schemes[0]

    @property
    def timed(self) -> bool:
        """Timing-coupled runs (every core retires its own target), as
        opposed to trace replays (the request budget is shared)."""
        return not self.mix.startswith(("tenants:", "shared:"))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-q7", "Q7", 4, ("lru", "prism-h", "prism-f"),
                 instructions=400_000, campaign=True, paper_claim=("fig3", "q7-gain")),
        Workload("hier-q7", "Q7", 4, ("plru", "prism-h", "belady"),
                 instructions=200_000,
                 machine={"l1": "inclusive", "dram_banks": 8, "dram_row_blocks": 32}),
        Workload("tenants-smoke4", "tenants:smoke4", 4, ("lru", "prism-h", "prism-f"),
                 instructions=300_000),
        Workload("scale16-clustered", "shared:scale16", 16,
                 ("lru", "prism-h", "prism-f"), instructions=200_000, clusters=4),
    )
}


def setup(workload: Workload):
    """Everything before the first run can start: imports, workload
    resolution and building the machine. Returns the machine config."""
    # Imported here, not at module level: this is the set-up being timed,
    # and the driver modules are otherwise imported lazily on first run.
    import repro.campaign.fingerprint  # noqa: F401
    import repro.campaign.runner  # noqa: F401
    import repro.campaign.store  # noqa: F401
    import repro.check.belady  # noqa: F401
    import repro.clustering.scaleout  # noqa: F401
    import repro.experiments.parallel  # noqa: F401
    import repro.tenancy.run  # noqa: F401
    from repro.experiments.configs import machine
    from repro.workloads.registry import resolve_workload

    resolve_workload(workload.mix)
    return machine(workload.cores, **workload.machine)


@dataclass
class Outcome:
    """What one iteration produced: results by scheme (``None`` = raised),
    and for campaign workloads the resume pass's results."""

    results: Dict[str, object]
    resumed: Optional[Dict[str, object]] = None
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.results) + len(self.resumed or {})

    @property
    def complete(self) -> bool:
        """Every scheme's first-pass run returned a result."""
        return all(r is not None for r in self.results.values())


def run_iteration(workload: Workload, config, seed: int, store_dir: Path) -> Outcome:
    """One closed-loop iteration: every scheme run, baselines included.

    The caller times this call and has emptied the stand-alone memo.
    A run that raises is recorded as ``None`` with its error text; on the
    campaign path a raise fails the rest of its pass.
    """
    from repro.experiments.runner import run_workload

    schemes = workload.schemes
    if not workload.campaign:
        outcome = Outcome(results={})
        for scheme in schemes:
            try:
                outcome.results[scheme] = run_workload(
                    workload.mix, config, scheme, seed=seed,
                    instructions=workload.instructions, clusters=workload.clusters,
                )
            except Exception as exc:  # counted toward error_rate
                outcome.results[scheme] = None
                outcome.errors.append(f"{scheme}: {type(exc).__name__}: {exc}")
        return outcome

    from repro.campaign.store import ResultStore
    from repro.experiments.parallel import RunSpec, run_specs

    specs = [
        RunSpec(mix=workload.mix, scheme=scheme, seed=seed,
                instructions=workload.instructions, clusters=workload.clusters)
        for scheme in schemes
    ]
    outcome = Outcome(results=dict.fromkeys(schemes), resumed=dict.fromkeys(schemes))
    for key, target in (("first", outcome.results), ("resume", outcome.resumed)):
        try:
            # The resume pass re-opens the store from disk, as a resumed
            # invocation would.
            results = run_specs(specs, config, jobs=1, store=ResultStore(store_dir))
        except Exception as exc:  # the whole pass counts as failed
            outcome.errors.append(f"{key} pass: {type(exc).__name__}: {exc}")
            continue
        target.update(zip(schemes, results))
    return outcome


def digest(result) -> str:
    """Canonical digest of one run's simulated results.

    Covers per-core IPC, hits, misses and occupancy at finish, the
    interval count and the §3.1 victim-not-found rate. Floats serialise
    through ``repr``, so equal digests mean bit-equal values.
    """
    payload = {
        "cores": [
            [c.ipc, c.hits, c.misses, c.occupancy_at_finish] for c in result.cores
        ],
        "intervals": result.intervals,
        "victim_not_found_rate": result.victim_not_found_rate,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run_problems(workload: Workload, result) -> List[str]:
    problems = []
    if workload.timed:
        short = [c.name for c in result.cores if c.instructions < workload.instructions]
        if short:
            problems.append(f"cores below the instruction target: {short}")
    else:
        served = sum(c.instructions for c in result.cores)
        if served != workload.instructions:
            problems.append(f"served {served} of {workload.instructions} requests")
    occupancy = [c.occupancy_at_finish for c in result.cores]
    if any(not 0.0 <= f <= 1.0 for f in occupancy):
        problems.append(f"occupancy fraction outside [0, 1]: {occupancy}")
    # A timing-coupled run samples each core's occupancy at that core's
    # own finish line, so those fractions come from different instants
    # and may sum past 1; a replay samples every core at the end.
    if not workload.timed and sum(occupancy) > 1.0 + 1e-9:
        problems.append(f"occupancy fractions sum to {sum(occupancy)} > 1")
    return problems


def check_outcome(workload: Workload, outcome: Outcome,
                  expected: Optional[Dict[str, str]]) -> Tuple[int, List[str]]:
    """Run every output check; return (failed run count, messages).

    ``expected`` maps scheme -> digest: the pin for the pinned seed, or
    the first iteration's digests otherwise (iterations must agree).
    """
    failed = 0
    messages = list(outcome.errors)
    for scheme, result in outcome.results.items():
        if result is None:
            failed += 1
            continue
        problems = _run_problems(workload, result)
        if expected is not None and digest(result) != expected.get(scheme):
            problems.append(
                f"digest {digest(result)} != expected {expected.get(scheme)}"
            )
        if problems:
            failed += 1
            messages.extend(f"{scheme}: {p}" for p in problems)
    for scheme, resumed in (outcome.resumed or {}).items():
        if resumed is None:
            failed += 1
        elif resumed != outcome.results.get(scheme):
            failed += 1
            messages.append(f"{scheme}: resume pass differs from the first pass")
    return failed, messages


def accesses(outcome: Outcome) -> int:
    """Simulated LLC accesses of the shared runs (first pass only)."""
    return sum(
        c.hits + c.misses
        for result in outcome.results.values()
        if result is not None
        for c in result.cores
    )


def ws_ratio(workload: Workload, outcome: Outcome) -> Optional[float]:
    """PriSM-H's weighted speedup over the unmanaged run's."""
    managed = outcome.results.get("prism-h")
    base = outcome.results.get(workload.unmanaged)
    if managed is None or base is None:
        return None
    return managed.weighted_speedup / base.weighted_speedup
