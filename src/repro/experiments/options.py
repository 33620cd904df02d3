"""The one run-options object every experiment entry point accepts.

:class:`RunOptions` bundles the cross-cutting run controls;
:meth:`repro.experiments.registry.Experiment.run` gives every registry
experiment the uniform signature ``run(options=None, **figure_kwargs)``.
A run control passed as a bare keyword argument is a ``TypeError``.

Figure-specific knobs (``core_counts``, ``bit_widths``, ...) stay plain
kwargs — they are not run controls.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

__all__ = ["RunOptions", "resolve_run_options"]

#: Environment variable the parallel executor consults when ``jobs`` is
#: ``None``.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable the parallel executor consults when ``store`` is
#: ``None``: a path to a :class:`repro.campaign.ResultStore` directory.
#: When set, every ``run_specs`` grid (and therefore every figure
#: experiment) skips specs whose fingerprint the store already holds and
#: persists new results as they complete. Set by ``repro-sim --store``.
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
