"""Experiment harness: configurations, runner, and per-figure reproductions.

Each paper figure/table has a module declaring its runs
(``specs(**budget)``) and reducing their results (``summarise``); it is
registered in :mod:`repro.experiments.registry`, whose
``Experiment.run`` executes it. The ``benchmarks/`` tree wraps these in
pytest-benchmark entry points that print paper-style rows.
"""

from repro.experiments.configs import MachineConfig, machine
from repro.experiments.options import RunOptions
from repro.experiments.parallel import (
    RunSpec,
    SpecRunError,
    resolve_jobs,
    run_specs,
)
from repro.experiments.runner import (
    StandaloneIPCCache,
    WorkloadResult,
    run_workload,
    standalone_ipcs,
)
from repro.experiments.schemes import SCHEMES, build_scheme

__all__ = [
    "MachineConfig",
    "machine",
    "RunOptions",
    "WorkloadResult",
    "run_workload",
    "standalone_ipcs",
    "StandaloneIPCCache",
    "SCHEMES",
    "build_scheme",
    "RunSpec",
    "SpecRunError",
    "resolve_jobs",
    "run_specs",
]
