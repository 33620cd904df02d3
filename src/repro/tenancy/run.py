"""The trace-replay driver for the tenant and shared-data families.

Tenant workloads (:mod:`repro.workloads.tenants`) and shared-data
workloads (:mod:`repro.workloads.shared`) are pre-generated
``(cores, addrs)`` traces with no timing model, so one driver replays
both. Its family entry points mirror
:func:`repro.experiments.runner.run_workload` (same signature shape, same
:class:`~repro.experiments.runner.WorkloadResult` out):
:func:`run_tenant_workload` here attaches the per-tenant SLO scorecard,
and :func:`repro.clustering.scaleout.run_shared_workload` adds
cluster-granular management through a ``core_map``.

An owner — tenant or core — is a core index, so every scheme runs
unchanged. :func:`trace_standalone` replays each owner alone on the full
cache under the scheme's baseline policy (memoised like the ``IPC^SP``
runs) for the normalisation IPCs and solo hit rates.
:func:`replay_trace_workload` replays the shared trace in chunks through
``access_many`` (the result does not depend on the chunk size) and bins
each chunk's hit mask by real core id, so per-core hits and misses stay
exact under a ``core_map``; without one they equal the cache's counters.
:class:`~repro.tenancy.perf.TenantPerfProvider` turns hits and misses
into service costs — the IPC analogue — and feeds PriSM-F/Q the
``cpi``/``ipc`` signals they normally read from the timing model.

Interval cadence: scheme runs use the engine's miss-driven intervals.
Unmanaged (scheme-less) runs never fire intervals, so the driver records
a telemetry sample at every generation-chunk boundary instead — a fixed
request window — which keeps SLO-attainment defined for LRU too.

``check=True`` attaches the invariant checker and turns on sharer-bitmask
tracking; both only observe, so a checked run equals an unchecked one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.cache import SharedCache
from repro.cache.encode import encode_accesses
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
from repro.metrics.tenancy import MissRunTracker, TenantSLOReport
from repro.telemetry import RunTelemetry, TelemetryRecorder
from repro.tenancy.perf import TenantPerfProvider
from repro.util.rng import derive_seed
from repro.workloads.registry import WorkloadSource, resolve_workload

__all__ = [
    "replay_trace_workload",
    "resolve_trace_workload",
    "run_tenant_workload",
    "tenant_standalone",
    "trace_standalone",
]


def _identity_digest(source: WorkloadSource) -> str:
    """Short stable digest of a workload identity, for memo keys."""
    payload = json.dumps(source.identity(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cost(hits: int, misses: int, provider: TenantPerfProvider) -> float:
    return hits * provider.hit_cost + misses * provider.miss_cost


def resolve_trace_workload(source, config: MachineConfig) -> WorkloadSource:
    """Resolve ``source`` and check it is as wide as the machine."""
    source = resolve_workload(source)
    if source.num_cores != config.num_cores:
        raise ValueError(
            f"mix {source.label!r} has {source.num_cores} programs but the "
            f"machine has {config.num_cores} cores"
        )
    return source


def trace_standalone(
    source: WorkloadSource,
    config: MachineConfig,
    scheme: str,
    total_requests: Optional[int],
    seed: int,
    cache: Optional[StandaloneIPCCache],
    family: str,
    owners: Sequence[str],
    solo_chunks: Callable,
) -> Tuple[List[float], List[float]]:
    """Per-owner solo baselines on the full cache (memoised).

    Owner ``index`` replays ``solo_chunks(index, requests, seed)`` — its
    ``source.solo_requests`` share of the budget — alone, under the
    baseline replacement policy the scheme registry pairs with
    ``scheme``. Returns ``(ipcs, hit_rates)``: service-cost IPC analogues
    for metric normalisation, hit rates for SLO targets. Results memoise
    into ``cache`` keyed by ``family``, the workload identity digest, the
    owner name, geometry, policy and request budget.
    """
    total = total_requests or config.instructions
    if cache is None:
        cache = DEFAULT_STANDALONE_CACHE
    digest = _identity_digest(source)
    ipcs, hit_rates = [], []
    for index, owner in enumerate(owners):
        _, policy = build_scheme(scheme, 1, [1.0])
        requests = source.solo_requests(index, total)
        key = (
            f"{family}:{digest}:{owner}",
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
            for cores, addrs in solo_chunks(index, requests, seed):
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


def replay_trace_workload(
    source: WorkloadSource,
    config: MachineConfig,
    scheme: str,
    seed: int,
    total_requests: int,
    standalone: List[float],
    names: List[str],
    scheme_kwargs: Optional[dict] = None,
    telemetry: Union[bool, TelemetryRecorder] = False,
    check: bool = False,
    core_map: Optional[List[int]] = None,
    owner_standalone: Optional[List[float]] = None,
    on_chunk: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> Tuple[WorkloadResult, RunTelemetry]:
    """Replay one trace workload's shared run and assemble its result.

    Args:
        standalone: per-core stand-alone IPCs (metric normalisation).
        names: per-core names, for the result and its cores.
        core_map: real core -> accounting owner (``None`` = every core
            is its own owner).
        owner_standalone: per-owner stand-alone IPCs the scheme is built
            with (``None`` = ``standalone``).
        on_chunk: called with each chunk's core ids and hit mask.
        scheme/seed/scheme_kwargs/telemetry/check: as in
            :func:`~repro.experiments.runner.run_workload`.

    Returns:
        The result, and the run's telemetry — always, since the tenant
        SLO scorecard reads its samples even when the result does not
        carry it.
    """
    num_cores = source.num_cores
    num_owners = max(core_map) + 1 if core_map is not None else num_cores
    scheme_obj, policy = build_scheme(
        scheme, num_owners, owner_standalone or standalone, **(scheme_kwargs or {})
    )
    cache = SharedCache(
        config.geometry,
        num_owners,
        policy=policy,
        scheme=scheme_obj,
        core_map=core_map,
        track_sharers=check,
    )
    checker = None
    if check:
        from repro.check.invariants import attach_checker

        checker = attach_checker(cache)

    provider = TenantPerfProvider(cache)
    if scheme_obj is not None and hasattr(scheme_obj, "perf"):
        # PriSM-F/Q read ctx.perf every interval; the provider stands in
        # for the timing model with the service-cost analogues.
        scheme_obj.perf = provider
    labels = (
        names if core_map is None else [f"cluster{g}" for g in range(num_owners)]
    )
    recorder = (
        telemetry if isinstance(telemetry, TelemetryRecorder) else TelemetryRecorder()
    )
    recorder.bind_cache(cache, benchmarks=labels, perf=provider)

    # Per-REAL-core tallies, binned before the engine's core->owner
    # translation (the cache's own stats are owner-indexed).
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
        if on_chunk is not None:
            on_chunk(cores, hit)
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
    for index, name in enumerate(names):
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
            occupancy = cache.occupancy[group] / core_map.count(group)
        else:
            occupancy = cache.occupancy[index]
        cores_out.append(
            CoreResult(
                name=name,
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

    result = WorkloadResult(
        mix=source.label,
        scheme=scheme,
        benchmarks=names,
        cores=cores_out,
        standalone=standalone,
        antt=antt(standalone, mp_ipcs),
        fairness=fairness(standalone, mp_ipcs),
        throughput=ipc_throughput(mp_ipcs),
        weighted_speedup=weighted_speedup(standalone, mp_ipcs),
        intervals=cache.intervals_completed,
        telemetry=run_telemetry if telemetry else None,
        **_scheme_diagnostics(scheme_obj),
    )
    return result, run_telemetry


def tenant_standalone(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    total_requests: Optional[int] = None,
    seed: int = 0,
    cache: Optional[StandaloneIPCCache] = None,
):
    """Per-tenant solo baselines on the full cache (memoised).

    Each tenant replays its rate share of the shared request budget
    alone; see :func:`trace_standalone`. Returns ``(ipcs, hit_rates)``.
    """
    source = resolve_workload(source)
    return trace_standalone(
        source, config, scheme, total_requests, seed, cache,
        "tenant", source.tenant_names, source.tenant_chunks,
    )


def run_tenant_workload(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    seed: int = 0,
    instructions: Optional[int] = None,
    scheme_kwargs: Optional[dict] = None,
    telemetry: Union[bool, TelemetryRecorder] = False,
    standalone_cache: Optional[StandaloneIPCCache] = None,
    check: bool = False,
) -> WorkloadResult:
    """Run one tenant workload under one scheme; report the paper's metrics.

    Args:
        source: a :class:`~repro.workloads.tenants.TenantWorkload` or a
            ``"tenants:<preset>"`` reference.
        config: the machine; ``config.num_cores`` must equal the tenant
            count, and ``instructions`` (or ``config.instructions``) is
            the total shared request budget.
        scheme/seed/instructions/scheme_kwargs/telemetry/standalone_cache/
            check: as in
            :func:`~repro.experiments.runner.run_workload`.

    Returns:
        A :class:`~repro.experiments.runner.WorkloadResult` whose cores
        are tenants (instructions = requests served, cycles = service
        cost) and whose ``tenant_slo`` field carries the per-tenant SLO
        scorecard.
    """
    source = resolve_trace_workload(source, config)
    total_requests = instructions or config.instructions
    sp_ipcs, solo_hit_rates = tenant_standalone(
        source,
        config,
        scheme=scheme,
        total_requests=total_requests,
        seed=seed,
        cache=standalone_cache,
    )
    miss_runs = MissRunTracker(config.num_cores)
    result, run_telemetry = replay_trace_workload(
        source,
        config,
        scheme,
        seed,
        total_requests,
        sp_ipcs,
        source.tenant_names,
        scheme_kwargs=scheme_kwargs,
        telemetry=telemetry,
        check=check,
        on_chunk=miss_runs.update,
    )
    slo = TenantSLOReport.build(
        source.tenant_names,
        [core.hits for core in result.cores],
        [core.misses for core in result.cores],
        solo_hit_rates,
        run_telemetry.samples,
        miss_runs,
    )
    return dataclasses.replace(result, tenant_slo=slo)
