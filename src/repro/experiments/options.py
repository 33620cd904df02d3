"""The one run-options object every experiment entry point accepts.

Before this module each figure's ``run()`` grew its own ad-hoc
``instructions=/seed=/progress=`` kwargs and the jobs knob travelled by
environment variable only. :class:`RunOptions` bundles the cross-cutting
run controls; the :func:`experiment_run` decorator gives every registry
``run()`` the uniform signature ``run(options=None, **figure_kwargs)``
while still accepting the legacy kwargs for one release (with
``DeprecationWarning``).

Figure-specific knobs (``core_counts``, ``bit_widths``, ...) stay plain
kwargs — they are not run controls.
"""

from __future__ import annotations

import functools
import inspect
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Optional

__all__ = ["RunOptions", "resolve_run_options", "experiment_run"]

#: Same env vars the parallel executor reads (kept in sync by a test).
JOBS_ENV = "REPRO_JOBS"
STORE_ENV = "REPRO_STORE"

#: Run controls the decorator still accepts as legacy keyword arguments.
_LEGACY_KWARGS = ("instructions", "seed", "progress", "jobs", "telemetry")


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


def resolve_run_options(
    options: Optional[RunOptions], legacy: dict, stacklevel: int = 3
) -> RunOptions:
    """Merge deprecated per-kwarg run controls into a :class:`RunOptions`.

    Every entry in ``legacy`` (the old ``instructions=``/``seed=``/...
    kwargs, present only if the caller passed them) earns a
    ``DeprecationWarning`` and overrides the corresponding ``options``
    field.
    """
    if options is None:
        options = RunOptions()
    if legacy:
        names = ", ".join(sorted(legacy))
        warnings.warn(
            f"passing {names} as keyword argument(s) is deprecated; "
            f"pass options=RunOptions({names}=...) instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
        options = replace(options, **legacy)
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
    run controls the implementation declares, pins ``REPRO_JOBS`` /
    ``REPRO_STORE`` while it executes when ``options.jobs`` /
    ``options.store`` are set, and accepts the legacy kwargs (and a bare
    positional instruction count) with a ``DeprecationWarning``.
    """
    accepted = set(inspect.signature(func).parameters)

    @functools.wraps(func)
    def wrapper(options=None, **kwargs):
        legacy = {k: kwargs.pop(k) for k in _LEGACY_KWARGS if k in kwargs}
        if isinstance(options, int):  # old positional instructions=
            legacy["instructions"] = options
            options = None
        opts = resolve_run_options(options, legacy)
        for name in ("instructions", "seed", "progress", "telemetry"):
            if name in accepted:
                kwargs[name] = getattr(opts, name)
        with _run_env(opts.jobs, opts.store):
            return func(**kwargs)

    wrapper.__wrapped_run__ = func
    return wrapper
