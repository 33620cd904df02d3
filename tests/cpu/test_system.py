"""Tests for the multicore system driver."""

import pytest

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.core.allocation import HitMaxPolicy
from repro.core.prism import PrismScheme
from repro.cpu.memory import MemoryModel
from repro.cpu.system import MultiCoreSystem, run_standalone


@pytest.fixture
def geometry():
    return CacheGeometry(8 << 10, 64, 8)  # 128 blocks


class TestRun:
    def test_every_core_reaches_target(self, geometry, friendly_profile,
                                        streaming_profile):
        cache = SharedCache(geometry, 2)
        system = MultiCoreSystem(cache, [friendly_profile, streaming_profile], seed=1)
        result = system.run(20000)
        for core in result.cores:
            assert core.instructions >= 20000

    def test_profile_count_must_match_cores(self, geometry, friendly_profile):
        cache = SharedCache(geometry, 2)
        with pytest.raises(ValueError, match="profiles"):
            MultiCoreSystem(cache, [friendly_profile])

    def test_rejects_zero_instruction_target(self, geometry, friendly_profile):
        cache = SharedCache(geometry, 1)
        system = MultiCoreSystem(cache, [friendly_profile])
        with pytest.raises(ValueError):
            system.run(0)

    def test_max_accesses_safety_valve(self, geometry, friendly_profile):
        cache = SharedCache(geometry, 1)
        system = MultiCoreSystem(cache, [friendly_profile])
        with pytest.raises(RuntimeError, match="exceeded"):
            system.run(10_000_000, max_accesses=100)
        # The loop's access counter is written back even when it exits by
        # an exception.
        assert system.total_accesses == 101

    @pytest.mark.parametrize("max_accesses", [0, -5])
    def test_rejects_non_positive_max_accesses(self, geometry, friendly_profile,
                                               max_accesses):
        cache = SharedCache(geometry, 1)
        system = MultiCoreSystem(cache, [friendly_profile])
        with pytest.raises(ValueError, match="max_accesses"):
            system.run(1000, max_accesses=max_accesses)
        assert system.total_accesses == 0

    def test_rejects_negative_l1_hit_latency(self, geometry, friendly_profile):
        cache = SharedCache(geometry, 1)
        with pytest.raises(ValueError, match="l1_hit_latency"):
            MultiCoreSystem(cache, [friendly_profile], l1_hit_latency=-1.0)

    def test_deterministic_under_seed(self, geometry, friendly_profile,
                                      streaming_profile):
        def run(seed):
            cache = SharedCache(geometry, 2)
            system = MultiCoreSystem(
                cache, [friendly_profile, streaming_profile], seed=seed
            )
            return [c.ipc for c in system.run(15000).cores]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_address_spaces_disjoint(self, geometry, friendly_profile):
        """Two cores running the identical profile must not share blocks:
        no cross-core hits can occur."""
        cache = SharedCache(geometry, 2)
        system = MultiCoreSystem(cache, [friendly_profile, friendly_profile], seed=2)
        system.run(10000)
        for cset in cache.sets:
            owners = {}
            for block in cset.blocks:
                owners.setdefault(block.tag, set()).add(block.core)
        # Footprints are identical but offset: occupancy split is sane.
        assert cache.occupancy[0] > 0 and cache.occupancy[1] > 0

    def test_memory_intensity_drives_access_share(self, geometry,
                                                  friendly_profile,
                                                  insensitive_profile):
        """Rate matching: the memory-intensive core issues far more LLC
        accesses per retired instruction than the compute-bound one."""
        cache = SharedCache(geometry, 2)
        system = MultiCoreSystem(
            cache, [friendly_profile, insensitive_profile], seed=3
        )
        system.run(30000)
        # Rates per *retired instruction* (the insensitive core keeps
        # executing after its finish line, so raw counts don't compare).
        rates = [
            cache.stats.accesses(i) / system.cores[i].instructions for i in range(2)
        ]
        assert rates[0] == pytest.approx(0.05, rel=0.1)
        assert rates[1] == pytest.approx(0.005, rel=0.1)


class TestPerfCounters:
    def test_interval_counters_roll(self, geometry, friendly_profile,
                                    streaming_profile):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(HitMaxPolicy(), interval_len=64)
        cache.set_scheme(scheme)
        system = MultiCoreSystem(cache, [friendly_profile, streaming_profile], seed=4)
        system.run(20000)
        assert cache.intervals_completed > 0
        # After rolling, the snapshots equal the live counters at roll time,
        # so interval CPI stays bounded and positive.
        for core in range(2):
            assert system.cpi(core) >= 0.0

    def test_system_registers_as_perf_provider(self, geometry, friendly_profile,
                                               streaming_profile):
        cache = SharedCache(geometry, 2)
        scheme = PrismScheme(HitMaxPolicy(), interval_len=64)
        cache.set_scheme(scheme)
        system = MultiCoreSystem(cache, [friendly_profile, streaming_profile])
        assert scheme.perf is system

    def test_interval_cpi_zero_when_core_idle(self, geometry, friendly_profile):
        cache = SharedCache(geometry, 1)
        system = MultiCoreSystem(cache, [friendly_profile])
        assert system.cpi(0) == 0.0
        assert system.ipc(0) == 0.0
        assert system.llc_stall_cpi(0) == 0.0


class TestStandalone:
    def test_standalone_beats_shared_for_friendly_core(self, geometry,
                                                       friendly_profile,
                                                       streaming_profile):
        alone = run_standalone(friendly_profile, geometry, 20000, seed=7)
        cache = SharedCache(geometry, 2)
        system = MultiCoreSystem(cache, [friendly_profile, streaming_profile], seed=7)
        shared = system.run(20000)
        assert alone.ipc >= shared.cores[0].ipc

    def test_standalone_occupies_whole_cache_eventually(self, geometry,
                                                        friendly_profile):
        core = run_standalone(friendly_profile, geometry, 20000)
        assert core.instructions >= 20000
        assert core.hits > 0

    def test_controllers_forwarded(self, geometry, streaming_profile):
        slow = run_standalone(streaming_profile, geometry, 15000, num_controllers=1)
        fast = run_standalone(streaming_profile, geometry, 15000, num_controllers=8)
        assert fast.ipc >= slow.ipc  # more controllers, less queueing
