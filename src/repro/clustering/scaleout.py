"""Cluster-granular PriSM at 16-64 cores: the shared-data family's glue.

:func:`run_shared_workload` runs a shared-data workload through the
trace-replay driver of :mod:`repro.tenancy.run` (the one the tenant
family uses), plus the ``clusters`` knob that engages
:mod:`repro.clustering`:

- with ``clusters=None`` every core is its own accounting owner and the
  run is the familiar per-core PriSM;
- with ``clusters=N`` it profiles a short prefix of the trace, groups
  cores by hit-curve similarity into at most ``N`` clusters, and has the
  driver build the scheme and cache at cluster width with the
  ``core_map`` installed — the engine translates core ids at the access
  boundary, so ``E_i``/``T_i``, quantization and the fallback paths all
  run per cluster, unchanged. The scheme is normalised by per-cluster
  stand-alone IPCs; the reported metrics stay per core.

The ``scaleout`` registry experiment sweeps workloads x schemes x
{per-core, clustered} and reports throughput and Jain-fairness panels;
runs fan out through :func:`~repro.experiments.parallel.run_specs`, so
``--jobs``, ``--store``, campaigns and the herd all apply.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

# Not called here: perfbench/tracing.py traces this module's binding by name.
from repro.cache.encode import encode_accesses  # noqa: F401
from repro.clustering import derive_core_map
from repro.experiments.configs import MachineConfig
from repro.experiments.runner import StandaloneIPCCache, WorkloadResult
from repro.metrics.tenancy import jain_fairness
from repro.telemetry import TelemetryRecorder
from repro.tenancy.run import (
    replay_trace_workload,
    resolve_trace_workload,
    trace_standalone,
)
from repro.workloads.registry import resolve_workload

__all__ = ["run_shared_workload", "shared_standalone", "run", "format_result"]


def shared_standalone(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    total_requests: Optional[int] = None,
    seed: int = 0,
    cache: Optional[StandaloneIPCCache] = None,
):
    """Per-core solo baselines on the full cache (memoised).

    Each core replays its equal share of the shared request budget
    alone; see :func:`~repro.tenancy.run.trace_standalone`. Returns
    ``(ipcs, hit_rates)``.
    """
    source = resolve_workload(source)
    return trace_standalone(
        source, config, scheme, total_requests, seed, cache,
        "shared", source.core_names, source.core_chunks,
    )


def _cluster_standalone(sp_ipcs: Sequence[float], core_map: Sequence[int]) -> list:
    """Per-cluster stand-alone IPCs: the mean of the member cores'.

    Cores within a cluster were grouped for having *similar* curves, so
    the mean is the natural cluster-level normaliser for PriSM-Q's
    target computation.
    """
    num_clusters = max(core_map) + 1
    sums = [0.0] * num_clusters
    counts = [0] * num_clusters
    for core, group in enumerate(core_map):
        sums[group] += sp_ipcs[core]
        counts[group] += 1
    return [s / c for s, c in zip(sums, counts)]


def run_shared_workload(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    seed: int = 0,
    instructions: Optional[int] = None,
    scheme_kwargs: Optional[dict] = None,
    telemetry: Union[bool, TelemetryRecorder] = False,
    standalone_cache: Optional[StandaloneIPCCache] = None,
    check: bool = False,
    clusters: Optional[int] = None,
) -> WorkloadResult:
    """Run one shared-data workload under one scheme; report the metrics.

    Args:
        source: a :class:`~repro.workloads.shared.SharedWorkload` or a
            ``"shared:<preset>"`` reference.
        config: the machine; ``config.num_cores`` must equal the
            workload's core count.
        clusters: run PriSM at cluster granularity — profile a trace
            prefix, group cores into at most this many clusters by
            hit-curve similarity, and manage clusters instead of cores
            (``None`` = per-core management).
        scheme/seed/instructions/scheme_kwargs/telemetry/standalone_cache/
            check: as in
            :func:`~repro.experiments.runner.run_workload`; ``check``
            also audits the ``sharer-consistency`` and
            ``cluster-conservation`` invariants.
    """
    source = resolve_trace_workload(source, config)
    total_requests = instructions or config.instructions
    sp_ipcs, _ = shared_standalone(
        source,
        config,
        scheme=scheme,
        total_requests=total_requests,
        seed=seed,
        cache=standalone_cache,
    )
    core_map = None
    if clusters is not None:
        core_map = derive_core_map(source, config.geometry, clusters, seed)
        if max(core_map) + 1 == source.num_cores:
            core_map = None  # clustering degenerated to per-core management
    result, _ = replay_trace_workload(
        source,
        config,
        scheme,
        seed,
        total_requests,
        sp_ipcs,
        source.core_names,
        scheme_kwargs=scheme_kwargs,
        telemetry=telemetry,
        check=check,
        core_map=core_map,
        owner_standalone=(
            _cluster_standalone(sp_ipcs, core_map) if core_map is not None else None
        ),
    )
    return result


# -- the registry experiment -------------------------------------------------

from repro.experiments.common import Progress, format_table  # noqa: E402
from repro.experiments.configs import machine  # noqa: E402
from repro.experiments.options import experiment_run  # noqa: E402
from repro.experiments.parallel import RunSpec, run_specs  # noqa: E402

#: The scheme panel the scale-out scenario compares by default.
DEFAULT_SCHEMES = ("lru", "prism-h", "prism-f")

#: The workload presets swept by default (16, 32 and 64 cores).
DEFAULT_WORKLOADS = ("scale16", "scale32", "scale64")


def _result_row(result: WorkloadResult, clusters: Optional[int]) -> Dict:
    slowdowns = [
        mp / sp if sp else 0.0 for mp, sp in zip(result.shared_ipcs(), result.standalone)
    ]
    total_hits = sum(c.hits for c in result.cores)
    total = sum(c.hits + c.misses for c in result.cores)
    return {
        "scheme": result.scheme,
        "clusters": clusters,
        "throughput": result.throughput,
        "weighted_speedup": result.weighted_speedup,
        "jain": jain_fairness(slowdowns),
        "hit_rate": total_hits / total if total else 0.0,
        "antt": result.antt,
        "intervals": result.intervals,
    }


@experiment_run
def run(
    instructions: Optional[int] = None,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    clusters: int = 4,
    scale_factor: int = 64,
    seed: int = 0,
    progress: Progress = None,
) -> Dict:
    """The many-core scale-out panels: throughput and Jain fairness.

    Sweeps every workload preset under every scheme twice — per-core
    management and cluster-granular management (``clusters`` clusters) —
    and reports throughput, weighted speedup, Jain fairness over
    per-core slowdowns, and hit rate for each cell.

    Args:
        instructions: total shared request budget per run (``None`` =
            the machine default).
        workloads: shared-family preset names (or full ``"shared:..."``
            references).
        schemes: scheme registry names to compare.
        clusters: cluster-count cap for the clustered half of the panel.
        scale_factor/seed: as everywhere else.
    """
    workloads = [w if ":" in w else f"shared:{w}" for w in workloads]
    schemes = list(schemes)
    panels = []
    for ref in workloads:
        source = resolve_workload(ref)
        config = machine(source.num_cores, scale_factor=scale_factor)
        specs = [
            RunSpec(
                mix=ref,
                scheme=scheme,
                seed=seed,
                instructions=instructions,
                clusters=cluster_count,
            )
            for scheme in schemes
            for cluster_count in (None, clusters)
        ]
        if progress:
            progress(
                f"{ref}: {len(specs)} runs ({source.num_cores} cores, "
                f"schemes {', '.join(schemes)}, per-core vs {clusters} clusters)"
            )
        results = run_specs(specs, config, progress=progress)
        rows = [
            _result_row(result, spec.clusters)
            for spec, result in zip(specs, results)
        ]
        panels.append({"workload": ref, "cores": source.num_cores, "rows": rows})
    return {
        "id": "scaleout",
        "schemes": schemes,
        "clusters": clusters,
        "workloads": workloads,
        "panels": panels,
    }


def format_result(result: Dict) -> str:
    lines = [
        "Many-core scale-out: cluster-granular PriSM "
        f"(clustered runs cap at {result['clusters']} clusters)"
    ]
    for panel in result["panels"]:
        lines.append(f"\n{panel['workload']} ({panel['cores']} cores)")
        lines.append(format_table(
            ["scheme", "clusters", "throughput", "w-speedup", "jain",
             "hit-rate", "ANTT", "intervals"],
            [
                [
                    row["scheme"],
                    row["clusters"] if row["clusters"] is not None else "per-core",
                    row["throughput"],
                    row["weighted_speedup"],
                    row["jain"],
                    row["hit_rate"],
                    row["antt"],
                    row["intervals"],
                ]
                for row in panel["rows"]
            ],
            width=11,
        ))
    return "\n".join(lines)
