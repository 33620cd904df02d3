"""Tests for the trace-replay driver: the tenant family, and the
stand-alone baselines of both trace families."""

import dataclasses
import math

import pytest

from repro.cache.cache import SharedCache
from repro.check import invariants
from repro.clustering.scaleout import shared_standalone
from repro.experiments.configs import machine
from repro.experiments.runner import (
    DEFAULT_STANDALONE_CACHE,
    StandaloneIPCCache,
    run_workload,
)
from repro.tenancy import run_tenant_workload, tenant_standalone
from repro.workloads.shared import SharedWorkload, get_shared_workload
from repro.workloads.tenants import DEFAULT_CHUNK, get_tenant_workload

CFG = machine(4, instructions=20_000)

#: (stand-alone entry point, 4-owner workload) per trace family.
FAMILIES = [
    pytest.param(tenant_standalone, "tenants:smoke4", id="tenants:smoke4"),
    pytest.param(shared_standalone, "shared:smoke4", id="shared:smoke4"),
]


def _other_identity(ref):
    """Another workload of ``ref``'s family, and a machine to run it on."""
    if ref.startswith("tenants:"):
        return get_tenant_workload("web8"), machine(8, instructions=20_000)
    spec = get_shared_workload("smoke4").spec
    # Same name and width, different identity.
    return SharedWorkload(dataclasses.replace(spec, keys=2 * spec.keys)), CFG


class TestRunTenantWorkload:
    def test_result_shape(self):
        result = run_tenant_workload("tenants:smoke4", CFG, "lru", seed=1)
        assert result.mix == "tenants:smoke4"
        assert result.scheme == "lru"
        assert result.benchmarks == ["alpha", "bravo", "sweeper", "shifty"]
        assert [c.name for c in result.cores] == result.benchmarks
        assert sum(c.instructions for c in result.cores) == CFG.instructions
        assert result.antt > 0 and result.throughput > 0
        assert 0 < result.fairness <= 1.0

    def test_tenant_slo_populated(self):
        result = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=1)
        slo = result.tenant_slo
        assert slo is not None
        assert slo.tenants == result.benchmarks
        assert len(slo.hit_rates) == 4
        assert all(0.0 <= a <= 1.0 for a in slo.slo_attainment)
        assert all(p >= 0 for p in slo.p99_miss_run)
        assert sum(slo.requests) == CFG.instructions
        for rate, core in zip(slo.hit_rates, result.cores):
            assert rate == pytest.approx(core.hits / (core.hits + core.misses))

    def test_core_count_mismatch(self):
        with pytest.raises(ValueError, match="cores"):
            run_tenant_workload("tenants:smoke4", machine(8, instructions=20_000))

    def test_deterministic_in_seed(self):
        a = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=3)
        DEFAULT_STANDALONE_CACHE.clear()
        b = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=3)
        assert a == b
        c = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=4)
        assert a != c

    def test_prism_diagnostics_survive(self):
        result = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=1)
        assert result.eviction_probabilities is not None
        assert sum(result.eviction_probabilities) == pytest.approx(1.0)
        assert result.intervals > 0

    def test_unmanaged_runs_tick_window_intervals(self):
        """LRU never fires miss-driven intervals; the driver windows them."""
        result = run_tenant_workload(
            "tenants:smoke4", CFG, "lru", seed=1, telemetry=True
        )
        assert result.intervals == math.ceil(CFG.instructions / DEFAULT_CHUNK)
        assert len(result.telemetry.samples) == 4 * result.intervals
        assert sum(s.hits + s.misses for s in result.telemetry.samples) == (
            CFG.instructions
        )

    def test_telemetry_recording(self):
        result = run_tenant_workload(
            "tenants:smoke4", CFG, "prism-h", seed=1, telemetry=True
        )
        assert result.telemetry is not None
        assert result.telemetry.num_cores == 4
        assert result.telemetry.benchmarks == result.benchmarks
        quiet = run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=1)
        assert quiet.telemetry is None

    def test_checked_run_matches_unchecked(self, monkeypatch):
        """The invariant checker and sharer tracking observe a tenant run,
        never change it."""
        checked_caches = []
        attach = invariants.attach_checker

        def spy(cache, *args, **kwargs):
            checked_caches.append(cache)
            return attach(cache, *args, **kwargs)

        monkeypatch.setattr(invariants, "attach_checker", spy)
        checked = run_tenant_workload(
            "tenants:smoke4", CFG, "prism-h", seed=1, check=True
        )
        (cache,) = checked_caches
        assert cache.track_sharers
        assert all(sharers for *_, sharers in cache.scan_sharers())
        assert checked == run_tenant_workload("tenants:smoke4", CFG, "prism-h", seed=1)

    def test_dispatches_through_run_workload(self):
        """The runner's mix seam routes tenant refs to this driver."""
        via_runner = run_workload("tenants:smoke4", CFG, "lru", seed=2)
        direct = run_tenant_workload("tenants:smoke4", CFG, "lru", seed=2)
        assert via_runner == direct


class TestStandaloneBaselines:
    @pytest.mark.parametrize("standalone,ref", FAMILIES)
    def test_memoised_per_owner(self, standalone, ref):
        private = StandaloneIPCCache()
        ipcs, rates = standalone(ref, CFG, cache=private)
        assert len(ipcs) == len(rates) == 4
        assert len(private) == 8  # ipc + hit_rate per owner
        assert len(DEFAULT_STANDALONE_CACHE) == 0

    @pytest.mark.parametrize("standalone,ref", FAMILIES)
    def test_recall_hits_the_memo(self, standalone, ref, monkeypatch):
        private = StandaloneIPCCache()
        first = standalone(ref, CFG, cache=private)

        def no_replay(*args, **kwargs):
            raise AssertionError("a memoised baseline was replayed")

        monkeypatch.setattr(SharedCache, "access_many", no_replay)
        assert standalone(ref, CFG, cache=private) == first
        assert len(private) == 8

    @pytest.mark.parametrize("standalone,ref", FAMILIES)
    def test_identity_keys_the_memo(self, standalone, ref):
        """Distinct workloads must not share solo baselines."""
        private = StandaloneIPCCache()
        first = standalone(ref, CFG, cache=private)
        size = len(private)
        other, config = _other_identity(ref)
        assert standalone(other, config, cache=private) != first
        assert len(private) == size + 2 * other.num_cores

    def test_families_never_collide(self):
        """A tenant and a shared source on one machine keep apart in one memo."""
        private = StandaloneIPCCache()
        tenant = tenant_standalone("tenants:smoke4", CFG, cache=private)
        shared = shared_standalone("shared:smoke4", CFG, cache=private)
        assert len(private) == 16
        assert len({key[0] for key in private.keys()}) == 8
        assert tenant_standalone("tenants:smoke4", CFG, cache=private) == tenant
        assert shared_standalone("shared:smoke4", CFG, cache=private) == shared

    def test_solo_hit_rates_feed_slo_targets(self):
        private = StandaloneIPCCache()
        _, rates = tenant_standalone("tenants:smoke4", CFG, cache=private)
        result = run_tenant_workload(
            "tenants:smoke4", CFG, "lru", standalone_cache=private
        )
        assert result.tenant_slo.solo_hit_rates == rates
        for target, solo in zip(result.tenant_slo.slo_targets, rates):
            assert target == pytest.approx(result.tenant_slo.slo_fraction * solo)
