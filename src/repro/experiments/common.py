"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.configs import MachineConfig
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.runner import WorkloadResult
from repro.metrics import geomean

__all__ = [
    "by_mix",
    "compare_schemes",
    "format_table",
    "Progress",
    "resolve_instructions",
    "scheme_grid",
]

Progress = Optional[Callable[[str], None]]


def resolve_instructions(instructions, cores: int) -> Optional[int]:
    """Resolve an instruction budget that may be per-core-count.

    ``instructions`` may be ``None`` (use the machine default), an int
    (same budget at every core count), or a dict keyed by core count.
    """
    if isinstance(instructions, dict):
        return instructions.get(cores)
    return instructions


def scheme_grid(
    config: MachineConfig,
    mixes: Sequence[str],
    schemes: Sequence[str],
    instructions: Optional[int] = None,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    telemetry: bool = False,
) -> List[Tuple[MachineConfig, RunSpec]]:
    """Every mix under every scheme on ``config``, mix-major.

    The declared runs of a figure panel; :func:`by_mix` regroups their
    results in the same order.
    """
    scheme_kwargs = scheme_kwargs or {}
    return [
        (config, RunSpec(
            mix=mix,
            scheme=scheme,
            seed=seed,
            instructions=instructions,
            scheme_kwargs=scheme_kwargs.get(scheme),
            telemetry=telemetry,
        ))
        for mix in mixes
        for scheme in schemes
    ]


def by_mix(
    results: Iterator[WorkloadResult], mixes: Sequence, schemes: Sequence[str]
) -> Dict[str, Dict[str, WorkloadResult]]:
    """Take one :func:`scheme_grid`'s results off ``results``.

    Returns ``grid[mix][scheme] -> WorkloadResult``.
    """
    return {mix: {scheme: next(results) for scheme in schemes} for mix in mixes}


def compare_schemes(
    mixes: Sequence[str],
    config: MachineConfig,
    schemes: Sequence[str],
    instructions: Optional[int] = None,
    seed: int = 0,
    scheme_kwargs: Optional[Dict[str, dict]] = None,
    progress: Progress = None,
    jobs: Optional[int] = None,
    telemetry: bool = False,
) -> Dict[str, Dict[str, WorkloadResult]]:
    """Run every mix under every scheme.

    Args:
        jobs: worker processes; ``None`` consults ``REPRO_JOBS`` (see
            :mod:`repro.experiments.parallel`). Above 1, the grid runs on
            a process pool with results bit-identical to the serial loop.
        telemetry: record per-interval telemetry into every result
            (parallel runs return identical traces to serial ones).

    Returns:
        ``results[mix][scheme] -> WorkloadResult``.
    """
    grid = scheme_grid(
        config, mixes, schemes, instructions, seed, scheme_kwargs, telemetry
    )
    results = run_specs(
        [spec for _, spec in grid], config, jobs=jobs, progress=progress
    )
    return by_mix(iter(results), mixes, schemes)


def geomean_ratio(
    results: Dict[str, Dict[str, WorkloadResult]],
    scheme: str,
    baseline: str,
    metric: str = "antt",
) -> float:
    """Geomean over mixes of ``metric(scheme) / metric(baseline)``."""
    ratios = [
        getattr(per_mix[scheme], metric) / getattr(per_mix[baseline], metric)
        for per_mix in results.values()
    ]
    return geomean(ratios)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], width: int = 12) -> str:
    """Fixed-width text table (what the bench harness prints)."""

    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}"
        return str(cell)

    lines = ["  ".join(f"{h:>{width}}" for h in headers)]
    lines.append("  ".join("-" * width for _ in headers))
    for row in rows:
        lines.append("  ".join(f"{fmt(c):>{width}}" for c in row))
    return "\n".join(lines)
