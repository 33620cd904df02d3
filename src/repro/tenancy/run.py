"""The multi-tenant replay driver: PriSM as a memcached partitioner.

:func:`run_tenant_workload` is the tenant-family counterpart of
:func:`repro.experiments.runner.run_workload` — same signature shape,
same :class:`~repro.experiments.runner.WorkloadResult` out — but the
"programs" are key-value tenants and the "CPU" is a service-cost model:

- tenant index = core index, so every scheme (PriSM-H/F/Q, the
  cliff-aware baseline, unmanaged LRU) runs unchanged — eviction
  probability *is* the per-tenant memory-reclaim pressure;
- performance counters come from :class:`~repro.tenancy.perf.
  TenantPerfProvider` (hit/miss service costs), giving PriSM-F and
  PriSM-Q the ``cpi``/``ipc`` signals they normally read from the
  timing model;
- stand-alone baselines replay each tenant alone on the full cache
  under the scheme's baseline policy (memoised like the ``IPC^SP``
  runs), yielding both the normalisation IPCs and the solo hit rates
  that set tenant-relative SLO targets;
- replay is chunked through ``access_many`` on pre-encoded traces,
  which sheds the per-access call overhead; the result does not depend
  on the chunk size.

Interval cadence: scheme runs use the engine's natural miss-driven
interval machinery. Unmanaged (scheme-less) runs never fire intervals,
so the driver records a telemetry sample at every generation-chunk
boundary instead — a fixed request window — which keeps SLO-attainment
defined for the LRU baseline too.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Optional, Union

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
from repro.telemetry import TelemetryRecorder
from repro.tenancy.perf import TenantPerfProvider
from repro.util.rng import derive_seed
from repro.workloads.registry import WorkloadSource, resolve_workload
from repro.workloads.tenants import DEFAULT_CHUNK

__all__ = ["run_tenant_workload", "tenant_standalone"]


def _identity_digest(source: WorkloadSource) -> str:
    """Short stable digest of a workload identity, for memo keys."""
    payload = json.dumps(source.identity(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _cost(hits: int, misses: int, provider: TenantPerfProvider) -> float:
    return hits * provider.hit_cost + misses * provider.miss_cost


def tenant_standalone(
    source,
    config: MachineConfig,
    scheme: str = "lru",
    total_requests: Optional[int] = None,
    seed: int = 0,
    cache: Optional[StandaloneIPCCache] = None,
):
    """Per-tenant solo baselines on the full cache (memoised).

    Each tenant replays its own request budget (its rate share of the
    shared run) alone, under the baseline replacement policy the scheme
    registry pairs with ``scheme``. Returns ``(ipcs, hit_rates)`` —
    service-cost IPC analogues for metric normalisation, hit rates for
    SLO targets. Results memoise into ``cache`` keyed by the workload
    identity digest, tenant, geometry, policy and request budget.
    """
    source = resolve_workload(source)
    total = total_requests or config.instructions
    if cache is None:
        cache = DEFAULT_STANDALONE_CACHE
    digest = _identity_digest(source)
    ipcs, hit_rates = [], []
    for index, tenant in enumerate(source.tenants):
        _, policy = build_scheme(scheme, 1, [1.0])
        requests = source.solo_requests(index, total)
        key = (
            f"tenant:{digest}:{tenant.name}",
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
            for cores, addrs in source.tenant_chunks(index, requests, seed):
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
    source = resolve_workload(source)
    if source.num_cores != config.num_cores:
        raise ValueError(
            f"mix {source.label!r} has {source.num_cores} programs but the "
            f"machine has {config.num_cores} cores"
        )
    total_requests = instructions or config.instructions
    sp_ipcs, solo_hit_rates = tenant_standalone(
        source,
        config,
        scheme=scheme,
        total_requests=total_requests,
        seed=seed,
        cache=standalone_cache,
    )

    scheme_obj, policy = build_scheme(
        scheme, config.num_cores, sp_ipcs, **(scheme_kwargs or {})
    )
    cache = SharedCache(
        config.geometry, config.num_cores, policy=policy, scheme=scheme_obj
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
    recorder = (
        telemetry if isinstance(telemetry, TelemetryRecorder) else TelemetryRecorder()
    )
    recorder.bind_cache(cache, benchmarks=source.tenant_names, perf=provider)

    miss_runs = MissRunTracker(config.num_cores)
    shared_seed = derive_seed(seed, "shared", source.label, scheme)
    window_intervals = scheme_obj is None  # unmanaged runs never fire intervals
    start = time.perf_counter()
    for cores, addrs in source.chunks(total_requests, shared_seed, DEFAULT_CHUNK):
        trace = encode_accesses(cores, addrs, config.geometry)
        out = cache.access_many(trace, collect=True)
        miss_runs.update(cores, np.asarray(out.hit))
        if window_intervals:
            recorder.record_interval(cache)
            cache.stats.reset_interval()
            cache.intervals_completed += 1
    run_telemetry = recorder.finalize(
        time.perf_counter() - start, accesses=total_requests
    )
    if checker is not None:
        checker.check_now()

    stats = cache.stats
    hits = list(stats.hits)
    misses = list(stats.misses)
    num_blocks = config.geometry.num_blocks
    cores_out = []
    mp_ipcs = []
    for index, tenant in enumerate(source.tenants):
        served = hits[index] + misses[index]
        cycles = _cost(hits[index], misses[index], provider)
        ipc = served / cycles if cycles else 0.0
        mp_ipcs.append(ipc)
        cores_out.append(
            CoreResult(
                name=tenant.name,
                ipc=ipc,
                cpi=cycles / served if served else 0.0,
                llc_stall_cpi=(
                    misses[index] * (provider.miss_cost - provider.hit_cost) / served
                    if served
                    else 0.0
                ),
                instructions=served,
                cycles=cycles,
                hits=hits[index],
                misses=misses[index],
                occupancy_at_finish=cache.occupancy[index] / num_blocks,
            )
        )

    slo = TenantSLOReport.build(
        source.tenant_names,
        hits,
        misses,
        solo_hit_rates,
        run_telemetry.samples,
        miss_runs,
    )
    return WorkloadResult(
        mix=source.label,
        scheme=scheme,
        benchmarks=source.tenant_names,
        cores=cores_out,
        standalone=sp_ipcs,
        antt=antt(sp_ipcs, mp_ipcs),
        fairness=fairness(sp_ipcs, mp_ipcs),
        throughput=ipc_throughput(mp_ipcs),
        weighted_speedup=weighted_speedup(sp_ipcs, mp_ipcs),
        intervals=cache.intervals_completed,
        telemetry=run_telemetry if telemetry else None,
        tenant_slo=slo,
        **_scheme_diagnostics(scheme_obj),
    )
