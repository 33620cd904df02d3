"""CampaignRunner: the store-aware, fault-tolerant layer over spec grids.

``run(specs)`` is the one verb: fingerprint every spec, skip the ones the
:class:`~repro.campaign.store.ResultStore` already holds, execute the rest
with per-spec isolation (:mod:`repro.campaign.executor`), and persist each
outcome — result or typed :class:`~repro.campaign.store.FailedRun` — the
moment it lands. Because persistence is incremental, killing the driver at
any point loses at most the in-flight specs; calling ``run`` again resumes
and executes exactly the remainder.

The same skip-by-fingerprint cache is available *without* the fault
tolerance through ``run_specs(..., store=...)`` (or the ``REPRO_STORE``
environment variable) — that path keeps ``run_specs``'s raise-on-error
contract and is what the figure experiments ride on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign import fingerprint
from repro.campaign.executor import iter_isolated
from repro.campaign.store import FailedRun, ResultStore
from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import WorkloadResult

__all__ = ["CampaignRun", "CampaignRunner", "cache_hit", "partition_specs"]

Progress = Optional[Callable[[str], None]]


def cache_hit(store: ResultStore, fingerprint: str, spec: RunSpec) -> Optional[WorkloadResult]:
    """The stored result for ``spec``, or ``None`` if it must (re)run.

    A stored result only satisfies a spec that asked for telemetry if a
    trace was actually recorded — otherwise the spec re-runs and the
    richer result supersedes the stored one (last record wins).
    """
    result = store.get(fingerprint)
    if result is None:
        return None
    if spec.telemetry and result.telemetry is None:
        return None
    return result


def partition_specs(
    store: Optional[ResultStore], specs: Sequence[RunSpec], config: MachineConfig
) -> Tuple[List[str], Dict[str, WorkloadResult], Dict[str, RunSpec]]:
    """Fingerprint ``specs``, deduplicate them, and split cached from pending.

    Returns ``(fingerprints, cached, pending)``: one fingerprint per spec,
    in spec order; the stored result per cached fingerprint; and the spec
    to execute per pending fingerprint, in first-appearance order.
    Duplicates of one fingerprint may differ in the two fields it leaves
    out, ``telemetry`` and ``check``; the served spec asks for each one
    any duplicate asks for, so every duplicate gets a trace and a
    requested invariant audit runs. With no ``store`` nothing is cached
    and every unique spec is pending.
    """
    specs = list(specs)
    # Both calls go through their module globals, where perfbench's
    # tracer wraps them.
    fingerprints = [fingerprint.spec_fingerprint(spec, config) for spec in specs]
    unique: Dict[str, RunSpec] = {}
    for spec, fp in zip(specs, fingerprints):
        kept = unique.setdefault(fp, spec)
        if (spec.telemetry and not kept.telemetry) or (spec.check and not kept.check):
            unique[fp] = replace(
                kept,
                telemetry=kept.telemetry or spec.telemetry,
                check=kept.check or spec.check,
            )
    cached: Dict[str, WorkloadResult] = {}
    pending: Dict[str, RunSpec] = {}
    for fp, spec in unique.items():
        hit = None if store is None else cache_hit(store, fp, spec)
        if hit is None:
            pending[fp] = spec
        else:
            cached[fp] = hit
    return fingerprints, cached, pending


@dataclass
class CampaignRun:
    """Outcome of one ``CampaignRunner.run`` call.

    ``results`` aligns with the input specs (``None`` where the spec
    failed); the executed/skipped/failed counters are over *unique*
    fingerprints — duplicate specs in a grid execute once.
    """

    results: List[Optional[WorkloadResult]]
    failures: List[FailedRun] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    remaining: int = 0  # pending specs not attempted (hit the ``limit``)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def describe(self) -> str:
        parts = [f"executed {self.executed}", f"skipped {self.skipped} (cached)"]
        if self.failed:
            parts.append(f"failed {self.failed}")
        if self.remaining:
            parts.append(f"remaining {self.remaining}")
        return ", ".join(parts)


class CampaignRunner:
    """Executes spec grids against a result store.

    Args:
        store: a :class:`ResultStore` or a path to create/open one.
        config: machine shared by every spec.
        jobs: concurrent worker processes (``None`` consults
            ``REPRO_JOBS``, like every other ``jobs=`` in the repo).
        retries: extra fresh-worker attempts per failing spec.
        timeout: per-attempt wall-clock limit in seconds (``None`` = no
            limit; enforced with one process per attempt).
    """

    def __init__(
        self,
        store: Union[ResultStore, str],
        config: MachineConfig,
        jobs: Optional[int] = None,
        retries: int = 1,
        timeout: Optional[float] = None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.config = config
        self.jobs = jobs
        self.retries = retries
        self.timeout = timeout

    def fingerprint(self, spec: RunSpec) -> str:
        return fingerprint.spec_fingerprint(spec, self.config)

    def run(
        self,
        specs: Sequence[RunSpec],
        progress: Progress = None,
        limit: Optional[int] = None,
    ) -> CampaignRun:
        """Execute every spec not already in the store.

        Args:
            specs: the grid (duplicates are deduplicated by fingerprint).
            progress: optional ``callable(str)`` invoked per completion.
            limit: execute at most this many pending specs this call
                (the rest stay pending for the next ``run``/resume).

        Returns:
            A :class:`CampaignRun`; ``results[i]`` corresponds to
            ``specs[i]`` and is ``None`` only if that spec failed (its
            :class:`FailedRun` is in ``failures`` and in the store).
        """
        fingerprints, cached, pending = partition_specs(self.store, specs, self.config)
        run_fps = list(pending)
        remaining = 0
        if limit is not None and limit < len(run_fps):
            remaining = len(run_fps) - limit
            run_fps = run_fps[:limit]

        executed: Dict[str, WorkloadResult] = {}
        failures: Dict[str, FailedRun] = {}
        for done, outcome in enumerate(
            iter_isolated(
                [pending[fp] for fp in run_fps],
                self.config,
                jobs=self.jobs,
                retries=self.retries,
                timeout=self.timeout,
            ),
            start=1,
        ):
            fp = run_fps[outcome.index]
            if outcome.ok:
                self.store.add_result(
                    fp, outcome.spec, outcome.result,
                    wall_seconds=outcome.wall_seconds,
                )
                executed[fp] = outcome.result
                if progress:
                    progress(
                        f"[{done}/{len(run_fps)}] {outcome.spec.describe()} "
                        f"({outcome.wall_seconds:.1f}s)"
                    )
            else:
                failure = FailedRun.from_outcome(fp, outcome)
                self.store.add_failure(failure)
                failures[fp] = failure
                if progress:
                    progress(f"[{done}/{len(run_fps)}] FAILED {failure.describe()}")

        merged = {**cached, **executed}
        return CampaignRun(
            results=[merged.get(fp) for fp in fingerprints],
            failures=list(failures.values()),
            executed=len(executed),
            skipped=len(cached),
            remaining=remaining,
        )
