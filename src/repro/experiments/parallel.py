"""Parallel experiment executor: fan (mix, scheme, seed) runs over processes.

The simulator is single-threaded pure Python, but every figure in the
paper's evaluation is an *embarrassingly parallel* grid of independent
``run_workload`` calls — mixes × schemes (× seeds for the noise sweeps).
This module executes such grids over a ``multiprocessing`` pool while
keeping the results **bit-identical to a serial run**:

- Every run's randomness derives from the spec itself:
  :func:`~repro.experiments.runner.run_workload` seeds its streams with
  ``derive_seed(seed, "shared", mix, scheme)`` and its stand-alone
  baselines with fixed salts, so a run's outcome depends only on its
  ``RunSpec`` — never on scheduling order or which worker executes it.
- Results are reassembled by submission index, so callers observe the
  exact ordering a serial loop would have produced.

Workers are started with the ``fork`` context where available, so they
inherit the parent's imported modules (no re-import cost per worker), and
each worker keeps the runner's memoised stand-alone IPC cache warm across
every spec it executes — the ``IPC^SP`` baselines are computed at most
once per (profile, geometry, policy) per worker.

``jobs`` semantics (shared by every entry point that accepts ``jobs=``):

- ``None`` — consult the ``REPRO_JOBS`` environment variable (the CLI's
  ``--jobs`` flag and ``examples/reproduce_paper.py --jobs`` set it, which
  is how the figure experiments deep inside the registry pick the value
  up without threading a parameter through every signature); unset or
  invalid means serial.
- ``<= 0`` — use ``os.cpu_count()``.
- ``1`` — run serially in-process (no pool, no pickling).
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.configs import MachineConfig
from repro.experiments.options import JOBS_ENV, STORE_ENV
from repro.experiments.runner import WorkloadResult, run_workload

__all__ = [
    "RunSpec",
    "SpecRunError",
    "resolve_jobs",
    "run_specs",
    "parallel_compare_schemes",
]

@dataclass(frozen=True)
class RunSpec:
    """One independent workload run: the unit the pool distributes.

    Attributes mirror :func:`~repro.experiments.runner.run_workload`'s
    signature; a spec must be picklable (mix names or benchmark-name
    sequences, not live simulator objects).
    """

    mix: Union[str, Sequence[str]]
    scheme: str = "lru"
    seed: int = 0
    instructions: Optional[int] = None
    scheme_kwargs: Optional[dict] = None
    #: Record per-interval telemetry into the result. The samples are
    #: deterministic dataclasses, so they pickle back from workers and a
    #: parallel trace stays bit-identical to the serial one.
    telemetry: bool = False
    #: Run with the cache-engine invariant checker attached
    #: (:func:`repro.check.attach_checker`). Observing only — a checked
    #: run produces the same result as an unchecked one, or raises
    #: :class:`~repro.check.InvariantViolation`.
    check: bool = False
    #: Cluster-granular management (shared-data workloads only): cap the
    #: number of accounting clusters (see :mod:`repro.clustering`).
    #: ``None`` = per-core management. Part of the campaign fingerprint —
    #: clustering changes results.
    clusters: Optional[int] = None

    def run(self, config: MachineConfig) -> WorkloadResult:
        """Execute this spec on ``config``.

        The one place a spec's fields become ``run_workload`` arguments:
        ``run_specs`` (serial and pool), the campaign executor and the
        herd worker all run a spec through here.
        """
        return run_workload(
            self.mix,
            config,
            self.scheme,
            seed=self.seed,
            instructions=self.instructions,
            scheme_kwargs=self.scheme_kwargs,
            telemetry=self.telemetry,
            check=self.check,
            clusters=self.clusters,
        )

    def describe(self) -> str:
        text = f"{self.mix} / {self.scheme} / seed {self.seed}"
        if self.clusters is not None:
            text += f" / {self.clusters} clusters"
        return text


class SpecRunError(RuntimeError):
    """A run failed inside :func:`run_specs`, annotated with its spec.

    Raised instead of letting a worker's exception propagate raw out of
    ``imap_unordered`` with no indication of which grid cell died. The
    original exception is chained as ``__cause__`` on the serial path;
    on the pool path (where the original traceback cannot cross the
    process boundary) the worker's formatted traceback is kept in
    :attr:`worker_traceback`.
    """

    def __init__(
        self,
        spec: RunSpec,
        index: int,
        error_type: str,
        message: str,
        worker_traceback: str = "",
    ) -> None:
        self.spec = spec
        self.index = index
        self.error_type = error_type
        self.error_message = message
        self.worker_traceback = worker_traceback
        super().__init__(
            f"spec [{index}] ({spec.describe()}) failed: {error_type}: {message}"
        )


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count (>= 1)."""
    if jobs is None:
        try:
            jobs = int(os.environ.get(JOBS_ENV, "1"))
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


# -- worker side ------------------------------------------------------------

#: The machine config, installed once per worker by the pool initializer so
#: it is not re-pickled with every task.
_worker_config: Optional[MachineConfig] = None


def _init_worker(config: MachineConfig) -> None:
    global _worker_config
    _worker_config = config


def _run_indexed_spec(item):
    """Run one spec; report success or a picklable error description.

    Exceptions are returned, not raised: a raw exception out of
    ``imap_unordered`` carries no hint of which spec died, so the driver
    re-raises it as a :class:`SpecRunError` with the spec's context.
    """
    index, spec = item
    start = time.perf_counter()
    try:
        result = spec.run(_worker_config)
    except Exception as exc:
        return index, None, (type(exc).__name__, str(exc), traceback.format_exc()), 0.0
    return index, result, None, time.perf_counter() - start


# -- driver side ------------------------------------------------------------


def _pool_context():
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _resolve_store(store):
    """``store`` argument -> a ResultStore, or None (no caching layer).

    ``None`` consults the ``REPRO_STORE`` environment variable (mirroring
    the ``jobs``/``REPRO_JOBS`` convention); a string/path opens a store
    at that directory; a ready-made store object passes through.
    """
    if store is None:
        path = os.environ.get(STORE_ENV)
        if not path:
            return None
        store = path
    if isinstance(store, (str, os.PathLike)):
        from repro.campaign.store import ResultStore

        return ResultStore(store)
    return store


def _execute_specs(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    progress=None,
    on_result: Optional[Callable[[int, WorkloadResult, float], None]] = None,
) -> List[WorkloadResult]:
    """The execution core of :func:`run_specs` (no store layer).

    ``on_result(index, result, wall_seconds)`` fires in the driver as each
    run completes — the store layer uses it to persist incrementally, so
    an interrupted grid keeps everything that finished.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        results = []
        for index, spec in enumerate(specs):
            if progress:
                progress(spec.describe())
            start = time.perf_counter()
            try:
                result = spec.run(config)
            except Exception as exc:
                raise SpecRunError(
                    spec, index, type(exc).__name__, str(exc)
                ) from exc
            if on_result:
                on_result(index, result, time.perf_counter() - start)
            results.append(result)
        return results

    results: List[Optional[WorkloadResult]] = [None] * len(specs)
    done = 0
    ctx = _pool_context()
    with ctx.Pool(
        processes=min(jobs, len(specs)),
        initializer=_init_worker,
        initargs=(config,),
    ) as pool:
        # Unordered completion for throughput; the index restores spec
        # order so parallel output is indistinguishable from serial.
        for index, result, error, elapsed in pool.imap_unordered(
            _run_indexed_spec, list(enumerate(specs))
        ):
            if error is not None:
                error_type, message, worker_tb = error
                raise SpecRunError(
                    specs[index], index, error_type, message,
                    worker_traceback=worker_tb,
                )
            results[index] = result
            if on_result:
                on_result(index, result, elapsed)
            done += 1
            if progress:
                progress(f"[{done}/{len(specs)}] {specs[index].describe()}")
    return results  # type: ignore[return-value]


def _run_specs_stored(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    store,
    jobs: Optional[int] = None,
    progress=None,
) -> List[WorkloadResult]:
    """Store-backed :func:`run_specs`: skip cached fingerprints, persist new.

    Pure caching layer — failures still raise :class:`SpecRunError` (the
    fault-*tolerant* contract lives in :mod:`repro.campaign.runner`).
    """
    from repro.campaign.runner import partition_specs

    fingerprints, cached, pending = partition_specs(store, specs, config)
    pending_fps = list(pending)
    pending_specs = list(pending.values())
    if progress and len(pending_specs) < len(specs):
        progress(
            f"store: {len(specs) - len(pending_specs)}/{len(specs)} cached "
            f"({store.root})"
        )

    def persist(index: int, result: WorkloadResult, wall_seconds: float) -> None:
        store.add_result(
            pending_fps[index], pending_specs[index], result,
            wall_seconds=wall_seconds,
        )

    executed = _execute_specs(
        pending_specs, config, jobs=jobs, progress=progress, on_result=persist
    )
    cached.update(zip(pending_fps, executed))
    return [cached[fp] for fp in fingerprints]


def run_specs(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    progress=None,
    store=None,
) -> List[WorkloadResult]:
    """Execute every spec and return results in spec order.

    Args:
        specs: the runs to execute (see :class:`RunSpec`).
        config: machine shared by every run.
        jobs: worker processes (see module docstring for the resolution
            rules). ``1`` executes serially in-process.
        progress: optional ``callable(str)`` invoked as runs complete.
        store: a :class:`repro.campaign.ResultStore` (or a path to one);
            specs whose fingerprint the store holds return the stored
            result without simulating, and fresh results persist into the
            store as they complete. ``None`` consults ``REPRO_STORE``.

    Returns:
        ``results[i]`` is the outcome of ``specs[i]`` — identical, field
        for field, to what a serial ``run_workload`` loop would produce
        (stored results round-trip exactly, so this holds across runs).

    Raises:
        SpecRunError: a run raised; the error names the failing spec and
            chains/embeds the worker's original traceback.
    """
    specs = list(specs)
    store = _resolve_store(store)
    if store is not None:
        return _run_specs_stored(specs, config, store, jobs=jobs, progress=progress)
    return _execute_specs(specs, config, jobs=jobs, progress=progress)


def parallel_compare_schemes(
    mixes: Sequence[str],
    config: MachineConfig,
    schemes: Sequence[str],
    instructions: Optional[int] = None,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    progress=None,
    jobs: Optional[int] = None,
    telemetry: bool = False,
) -> Dict[str, Dict[str, WorkloadResult]]:
    """The (mixes × schemes) grid behind every figure, executed by the pool.

    Same signature and return shape as
    :func:`repro.experiments.common.compare_schemes` (which delegates here
    when ``jobs`` resolves above 1): ``results[mix][scheme]``.
    """
    scheme_kwargs = scheme_kwargs or {}
    specs = [
        RunSpec(
            mix=mix,
            scheme=scheme,
            seed=seed,
            instructions=instructions,
            scheme_kwargs=scheme_kwargs.get(scheme),
            telemetry=telemetry,
        )
        for mix in mixes
        for scheme in schemes
    ]
    flat = run_specs(specs, config, jobs=jobs, progress=progress)
    results: Dict[str, Dict[str, WorkloadResult]] = {mix: {} for mix in mixes}
    for spec, result in zip(specs, flat):
        results[spec.mix][spec.scheme] = result
    return results
