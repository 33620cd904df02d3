"""The one run-options object every experiment entry point accepts.

Before this module each figure's ``run()`` grew its own ad-hoc
``instructions=/seed=/progress=`` kwargs and the jobs knob travelled by
environment variable only. :class:`RunOptions` bundles the cross-cutting
run controls; the :func:`experiment_run` decorator gives every registry
``run()`` the uniform signature ``run(options=None, **figure_kwargs)``.
A run control passed as a bare keyword argument is a ``TypeError``.

Figure-specific knobs (``core_counts``, ``bit_widths``, ...) stay plain
kwargs — they are not run controls.
"""

from __future__ import annotations

import functools
import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Optional

__all__ = ["RunOptions", "resolve_run_options", "experiment_run"]

#: Environment variable the parallel executor consults when ``jobs`` is
#: ``None``.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable the parallel executor consults when ``store`` is
#: ``None``: a path to a :class:`repro.campaign.ResultStore` directory.
#: When set, every ``run_specs`` grid (and therefore every figure
#: experiment) skips specs whose fingerprint the store already holds and
#: persists new results as they complete. Set by ``repro-sim --store`` and
#: ``examples/reproduce_paper.py --store``.
STORE_ENV = "REPRO_STORE"

@dataclass(frozen=True)
class RunOptions:
    """Cross-cutting controls for one experiment or workload run.

    Args:
        instructions: per-core instruction target (``None`` = the
            figure's/machine's default budget).
        progress: per-run progress callback (``print``-compatible).
        jobs: worker processes for the parallel executor (``None`` =
            serial unless ``REPRO_JOBS`` is set; ``0`` = all CPUs).
        seed: top-level seed for streams and scheme PRNGs.
        telemetry: record per-interval telemetry into each
            ``WorkloadResult.telemetry`` (or pass a pre-built
            ``TelemetryRecorder`` for a single run).
        standalone_cache: the ``IPC^SP`` memo to use (``None`` = the
            process-wide default).
        store: path to a :class:`repro.campaign.ResultStore` directory;
            grids executed under these options skip runs the store
            already holds and persist new ones (``None`` = no store
            unless ``REPRO_STORE`` is set).
        check: attach the cache-engine invariant checker
            (:func:`repro.check.attach_checker`) to every shared cache the
            run builds; an inconsistency raises
            :class:`~repro.check.InvariantViolation` instead of silently
            corrupting results. Off by default (it audits the whole cache
            periodically — see ``docs/testing.md`` for the overhead).
    """

    instructions: Optional[int] = None
    progress: Optional[Callable[[str], None]] = None
    jobs: Optional[int] = None
    seed: int = 0
    telemetry: object = False
    standalone_cache: object = None
    store: Optional[str] = None
    check: bool = False


#: Every run control: a field of :class:`RunOptions`, never a bare kwarg.
_RUN_CONTROLS = tuple(f.name for f in fields(RunOptions))


def resolve_run_options(options: Optional[RunOptions], kwargs: dict) -> RunOptions:
    """``options`` (or the defaults), checked against the figure kwargs.

    Raises:
        TypeError: ``options`` is not a :class:`RunOptions`, or ``kwargs``
            holds a run control, which belongs in ``options``.
    """
    stray = sorted(name for name in kwargs if name in _RUN_CONTROLS)
    if stray:
        names = ", ".join(stray)
        raise TypeError(
            f"run controls are not figure keyword arguments: {names}; "
            f"pass options=RunOptions({names}=...)"
        )
    if options is None:
        return RunOptions()
    if not isinstance(options, RunOptions):
        raise TypeError(
            f"options must be a RunOptions, not {type(options).__name__}"
        )
    return options


@contextmanager
def _run_env(jobs: Optional[int], store: Optional[str] = None):
    """Temporarily pin ``REPRO_JOBS``/``REPRO_STORE`` for nested calls.

    The figure implementations fan out through ``compare_schemes`` many
    layers down; rather than threading ``jobs``/``store`` through every
    signature, the wrapper pins the env vars the parallel executor
    resolves at fan-out time.
    """
    overrides = {}
    if jobs is not None:
        overrides[JOBS_ENV] = str(jobs)
    if store is not None:
        overrides[STORE_ENV] = os.fspath(store)
    if not overrides:
        yield
        return
    previous = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def experiment_run(func):
    """Give a figure ``run()`` implementation the uniform options API.

    The wrapped function keeps its internal signature
    (``instructions=None, ..., seed=0, progress=None``); the wrapper
    exposes ``run(options=None, **figure_kwargs)``, forwards whichever
    run controls the implementation declares, and pins ``REPRO_JOBS`` /
    ``REPRO_STORE`` while it executes when ``options.jobs`` /
    ``options.store`` are set.
    """
    accepted = set(inspect.signature(func).parameters)

    @functools.wraps(func)
    def wrapper(options=None, **kwargs):
        opts = resolve_run_options(options, kwargs)
        for name in ("instructions", "seed", "progress", "telemetry"):
            if name in accepted:
                kwargs[name] = getattr(opts, name)
        with _run_env(opts.jobs, opts.store):
            return func(**kwargs)

    wrapper.__wrapped_run__ = func
    return wrapper
