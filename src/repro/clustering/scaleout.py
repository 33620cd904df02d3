"""The scale-out replay driver: cluster-granular PriSM at 16-64 cores.

:func:`run_shared_workload` is the shared-data-family counterpart of
:func:`repro.tenancy.run.run_tenant_workload` — same signature shape,
same :class:`~repro.experiments.runner.WorkloadResult` out — plus the
``clusters`` knob that engages :mod:`repro.clustering`:

- with ``clusters=None`` every core is its own accounting owner and the
  run is the familiar per-core PriSM;
- with ``clusters=N`` the driver profiles a short prefix of the trace,
  groups cores by hit-curve similarity into at most ``N`` clusters, and
  builds the scheme and cache at cluster width with the ``core_map``
  installed — the engine translates core ids at the access boundary, so
  ``E_i``/``T_i``, quantization and the fallback paths all run per
  cluster, unchanged.

Accounting vs reporting: the cache's counters (occupancy, hits, misses,
the shadow monitor) are *accounting*-indexed — K clusters wide — because
that is what the scheme manages. Per-core metrics (IPC, Jain fairness,
weighted speedup) are recovered in the driver from the replay outputs:
each chunk's hit mask is binned by the original core ids before
translation, so per-core hit/miss totals are exact, not estimates.

``check=True`` turns on sharer-bitmask tracking and audits the
``sharer-consistency`` and ``cluster-conservation`` invariants along
with the original catalogue.

The ``scaleout`` registry experiment sweeps workloads x schemes x
{per-core, clustered} and reports throughput and Jain-fairness panels;
runs fan out through :func:`~repro.experiments.parallel.run_specs`, so
``--jobs``, ``--store``, campaigns and the herd all apply.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.cache.cache import SharedCache
from repro.cache.encode import encode_accesses
from repro.clustering import derive_core_map
from repro.cpu.system import CoreResult
from repro.experiments.configs import MachineConfig
from repro.experiments.runner import (
    DEFAULT_STANDALONE_CACHE,
    StandaloneIPCCache,
    WorkloadResult,
    _scheme_diagnostics,
)
from repro.experiments.schemes import build_scheme
from repro.metrics import antt, fairness, ipc_throughput, weighted_speedup
from repro.metrics.tenancy import jain_fairness
from repro.telemetry import TelemetryRecorder
from repro.tenancy.perf import TenantPerfProvider
from repro.tenancy.run import _identity_digest
from repro.util.rng import derive_seed
from repro.workloads.registry import resolve_workload

__all__ = ["run_shared_workload", "shared_standalone", "run", "format_result"]


def _cost(hits: int, misses: int, provider: TenantPerfProvider) -> float:
    return hits * provider.hit_cost + misses * provider.miss_cost


def shared_standalone(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    total_requests: Optional[int] = None,
    seed: int = 0,
    cache: Optional[StandaloneIPCCache] = None,
):
    """Per-core solo baselines on the full cache (memoised).

    Each core replays its equal share of the shared request budget alone
    under the scheme's baseline policy. Returns ``(ipcs, hit_rates)`` —
    service-cost IPC analogues and solo hit rates, memoised like the
    tenant baselines.
    """
    source = resolve_workload(source)
    total = total_requests or config.instructions
    if cache is None:
        cache = DEFAULT_STANDALONE_CACHE
    digest = _identity_digest(source)
    ipcs, hit_rates = [], []
    for index in range(source.num_cores):
        _, policy = build_scheme(scheme, 1, [1.0])
        requests = source.solo_requests(index, total)
        key = (
            f"shared:{digest}:core{index}",
            config.geometry,
            type(policy).__name__,
            config.num_controllers,
            requests,
            config.workload_scale,
            seed,
        )
        ipc = cache.get(key + ("ipc",))
        rate = cache.get(key + ("hit_rate",))
        if ipc is None or rate is None:
            solo_cache = SharedCache(config.geometry, 1, policy=policy)
            provider = TenantPerfProvider(solo_cache)
            for cores, addrs in source.core_chunks(index, requests, seed):
                solo_cache.access_many(encode_accesses(cores, addrs, config.geometry))
            hits = solo_cache.stats.hits[0]
            misses = solo_cache.stats.misses[0]
            served = hits + misses
            cycles = _cost(hits, misses, provider)
            ipc = served / cycles if cycles else 0.0
            rate = hits / served if served else 0.0
            cache.store(key + ("ipc",), ipc)
            cache.store(key + ("hit_rate",), rate)
        ipcs.append(ipc)
        hit_rates.append(rate)
    return ipcs, hit_rates


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
    track_sharers: bool = False,
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
        track_sharers: maintain per-block sharer bitmasks (implied by
            ``check=True``, which audits the ``sharer-consistency``
            invariant).
        scheme/seed/instructions/scheme_kwargs/telemetry/standalone_cache/
            check: as in
            :func:`~repro.experiments.runner.run_workload`.
    """
    source = resolve_workload(source)
    if source.num_cores != config.num_cores:
        raise ValueError(
            f"mix {source.label!r} has {source.num_cores} cores but the "
            f"machine has {config.num_cores} cores"
        )
    num_cores = source.num_cores
    total_requests = instructions or config.instructions
    sp_ipcs, solo_hit_rates = shared_standalone(
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
        if max(core_map) + 1 == num_cores:
            core_map = None  # clustering degenerated to per-core management
    acct_cores = max(core_map) + 1 if core_map is not None else num_cores
    acct_standalone = (
        _cluster_standalone(sp_ipcs, core_map) if core_map is not None else sp_ipcs
    )

    scheme_obj, policy = build_scheme(
        scheme, acct_cores, acct_standalone, **(scheme_kwargs or {})
    )
    cache = SharedCache(
        config.geometry,
        acct_cores,
        policy=policy,
        scheme=scheme_obj,
        core_map=core_map,
        track_sharers=track_sharers or check,
    )
    checker = None
    if check:
        from repro.check.invariants import attach_checker

        checker = attach_checker(cache)

    provider = TenantPerfProvider(cache)
    if scheme_obj is not None and hasattr(scheme_obj, "perf"):
        scheme_obj.perf = provider
    labels = (
        [f"cluster{g}" for g in range(acct_cores)]
        if core_map is not None
        else source.core_names
    )
    recorder = (
        telemetry if isinstance(telemetry, TelemetryRecorder) else TelemetryRecorder()
    )
    recorder.bind_cache(cache, benchmarks=labels, perf=provider)

    # Per-REAL-core tallies, binned from the replay outputs before the
    # engine's core->cluster translation (the cache's own stats are
    # accounting-indexed).
    core_hits = np.zeros(num_cores, dtype=np.int64)
    core_misses = np.zeros(num_cores, dtype=np.int64)
    shared_seed = derive_seed(seed, "shared", source.label, scheme)
    window_intervals = scheme_obj is None  # unmanaged runs never fire intervals
    start = time.perf_counter()
    for cores, addrs in source.chunks(total_requests, shared_seed):
        trace = encode_accesses(cores, addrs, config.geometry)
        out = cache.access_many(trace, collect=True)
        hit = np.asarray(out.hit, dtype=bool)
        core_hits += np.bincount(cores[hit], minlength=num_cores)
        core_misses += np.bincount(cores[~hit], minlength=num_cores)
        if window_intervals:
            recorder.record_interval(cache)
            cache.stats.reset_interval()
            cache.intervals_completed += 1
    run_telemetry = recorder.finalize(
        time.perf_counter() - start, accesses=total_requests
    )
    if checker is not None:
        checker.check_now()

    num_blocks = config.geometry.num_blocks
    cores_out = []
    mp_ipcs = []
    for index in range(num_cores):
        hits = int(core_hits[index])
        misses = int(core_misses[index])
        served = hits + misses
        cycles = _cost(hits, misses, provider)
        ipc = served / cycles if cycles else 0.0
        mp_ipcs.append(ipc)
        if core_map is not None:
            # Under clustering occupancy is owned per cluster; report an
            # even split across members. (Exact per-filler charges could
            # be scanned from the blocks, but reported results, and the
            # digests pinned on them, are defined on the split.)
            group = core_map[index]
            members = core_map.count(group)
            occupancy = cache.occupancy[group] / members
        else:
            occupancy = cache.occupancy[index]
        cores_out.append(
            CoreResult(
                name=f"core{index}",
                ipc=ipc,
                cpi=cycles / served if served else 0.0,
                llc_stall_cpi=(
                    misses * (provider.miss_cost - provider.hit_cost) / served
                    if served
                    else 0.0
                ),
                instructions=served,
                cycles=cycles,
                hits=hits,
                misses=misses,
                occupancy_at_finish=occupancy / num_blocks,
            )
        )

    return WorkloadResult(
        mix=source.label,
        scheme=scheme,
        benchmarks=source.core_names,
        cores=cores_out,
        standalone=sp_ipcs,
        antt=antt(sp_ipcs, mp_ipcs),
        fairness=fairness(sp_ipcs, mp_ipcs),
        throughput=ipc_throughput(mp_ipcs),
        weighted_speedup=weighted_speedup(sp_ipcs, mp_ipcs),
        intervals=cache.intervals_completed,
        telemetry=run_telemetry if telemetry else None,
        **_scheme_diagnostics(scheme_obj),
    )


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
