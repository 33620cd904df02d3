"""Parallel experiment executor: fan (mix, scheme, seed) runs over processes.

The simulator is single-threaded pure Python, but every figure in the
paper's evaluation is an *embarrassingly parallel* grid of independent
``run_workload`` calls — mixes × schemes (× seeds for the noise sweeps).
This module executes such grids — each distinct run once, however often
the grid lists it — over a ``multiprocessing`` pool while keeping the
results **bit-identical to a serial run**:

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
  ``--jobs`` flag also sets it); unset or invalid means serial.
- ``<= 0`` — use ``os.cpu_count()``.
- ``1`` — run serially in-process (no pool, no pickling).
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.experiments.configs import MachineConfig
from repro.experiments.options import JOBS_ENV, STORE_ENV
from repro.experiments.runner import WorkloadResult, run_workload

__all__ = [
    "RunSpec",
    "SpecRunError",
    "resolve_jobs",
    "run_specs",
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
    items: Sequence[Tuple[int, RunSpec]],
    config: MachineConfig,
    jobs: Optional[int],
    progress,
    on_result: Callable[[int, WorkloadResult, float], None],
) -> None:
    """Run each ``(index, spec)`` of ``items``, serially or on a pool.

    ``on_result(index, result, wall_seconds)`` fires in the driver as each
    run completes — the caller collects results through it, and the store
    layer persists incrementally, so an interrupted grid keeps everything
    that finished. A failure raises :class:`SpecRunError` naming the
    spec's ``index``.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        for index, spec in items:
            if progress:
                progress(spec.describe())
            start = time.perf_counter()
            try:
                result = spec.run(config)
            except Exception as exc:
                raise SpecRunError(
                    spec, index, type(exc).__name__, str(exc)
                ) from exc
            on_result(index, result, time.perf_counter() - start)
        return

    specs = dict(items)
    done = 0
    ctx = _pool_context()
    with ctx.Pool(
        processes=min(jobs, len(items)),
        initializer=_init_worker,
        initargs=(config,),
    ) as pool:
        # Unordered completion for throughput; the caller places each
        # result by its index, so parallel output matches serial.
        for index, result, error, elapsed in pool.imap_unordered(
            _run_indexed_spec, items
        ):
            if error is not None:
                error_type, message, worker_tb = error
                raise SpecRunError(
                    specs[index], index, error_type, message,
                    worker_traceback=worker_tb,
                )
            on_result(index, result, elapsed)
            done += 1
            if progress:
                progress(f"[{done}/{len(items)}] {specs[index].describe()}")


def run_specs(
    specs: Sequence[RunSpec],
    config: MachineConfig,
    jobs: Optional[int] = None,
    progress=None,
    store=None,
) -> List[WorkloadResult]:
    """Execute every spec and return results in spec order.

    Specs are deduplicated by campaign fingerprint first
    (:func:`repro.campaign.runner.partition_specs`): each distinct run
    simulates once and every duplicate gets its result, and a telemetry
    request serves its plain twin.

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
    from repro.campaign.runner import partition_specs

    specs = list(specs)
    store = _resolve_store(store)
    fingerprints, served, pending = partition_specs(store, specs, config)
    if progress and store is not None:
        unique = len(served) + len(pending)
        progress(f"store: {len(served)}/{unique} cached ({store.root})")
    # Each pending run is named by the index of its fingerprint's first
    # spec, so a failure points into the caller's list.
    first = {}
    for index, fp in enumerate(fingerprints):
        first.setdefault(fp, index)
    items = [(first[fp], spec) for fp, spec in pending.items()]

    def collect(index: int, result: WorkloadResult, wall_seconds: float) -> None:
        fp = fingerprints[index]
        served[fp] = result
        if store is not None:
            store.add_result(fp, pending[fp], result, wall_seconds=wall_seconds)

    _execute_specs(items, config, jobs=jobs, progress=progress, on_result=collect)
    return [served[fp] for fp in fingerprints]
