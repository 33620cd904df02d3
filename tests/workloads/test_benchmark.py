"""Tests for benchmark profiles and access streams."""

import pytest

from repro.util.rng import derive_seed, make_rng
from repro.workloads.benchmark import AccessStream, BenchmarkProfile
from repro.workloads.phased import PhasedProfile
from repro.workloads.spec import PROFILES, get_profile
from repro.workloads.zones import ScanZone, UniformZone

from tests.workloads.test_zones import reference_addresses


def profile(**overrides):
    kwargs = dict(
        name="t",
        zones=(UniformZone(0.5, 100), ScanZone(0.5, 200)),
        mem_ratio=0.02,
        mlp=2.0,
        cpi_base=0.5,
    )
    kwargs.update(overrides)
    return BenchmarkProfile(**kwargs)


class TestProfileValidation:
    def test_rejects_zero_mem_ratio(self):
        with pytest.raises(ValueError):
            profile(mem_ratio=0.0)

    def test_rejects_mem_ratio_above_one(self):
        with pytest.raises(ValueError):
            profile(mem_ratio=1.5)

    def test_rejects_mlp_below_one(self):
        with pytest.raises(ValueError):
            profile(mlp=0.5)

    def test_rejects_zero_cpi(self):
        with pytest.raises(ValueError):
            profile(cpi_base=0.0)

    def test_rejects_empty_zones(self):
        with pytest.raises(ValueError):
            profile(zones=())

    def test_mean_gap(self):
        assert profile(mem_ratio=0.02).mean_gap == 50.0

    def test_footprint(self):
        assert profile().footprint() == 300
        assert profile().footprint(scale=0.5) == 150


class TestAccessStream:
    def test_gaps_within_jitter_band(self):
        stream = profile(mem_ratio=0.02).stream(seed=1)
        for _ in range(2000):
            gap, _ = stream.next_access()
            assert 25 <= gap <= 75  # [0.5, 1.5] * mean_gap

    def test_gaps_at_least_one_instruction(self):
        stream = profile(mem_ratio=0.9).stream(seed=1)
        for _ in range(500):
            gap, _ = stream.next_access()
            assert gap >= 1

    def test_mean_gap_approximates_mem_ratio(self):
        stream = profile(mem_ratio=0.02).stream(seed=2)
        gaps = [stream.next_access()[0] for _ in range(20000)]
        assert sum(gaps) / len(gaps) == pytest.approx(50, rel=0.05)

    def test_deterministic_per_seed(self):
        p = profile()
        a = [p.stream(seed=3).next_access() for _ in range(1)]
        s1, s2 = p.stream(seed=3), p.stream(seed=3)
        assert [s1.next_access() for _ in range(500)] == [
            s2.next_access() for _ in range(500)
        ]

    def test_distinct_seeds_distinct_streams(self):
        p = profile()
        s1, s2 = p.stream(seed=1), p.stream(seed=2)
        assert [s1.next_access() for _ in range(100)] != [
            s2.next_access() for _ in range(100)
        ]

    def test_iteration_protocol(self):
        stream = profile().stream(seed=4)
        count = 0
        for gap, addr in stream:
            count += 1
            if count >= 10:
                break
        assert stream.generated == 10

    def test_scale_passed_to_zone_model(self):
        stream = AccessStream(profile(), seed=5, scale=0.5)
        assert stream.zone_model.footprint == 150


def reference_stream(p, seed=0, scale=1.0):
    """``p``'s (gap, address) pairs drawn one at a time through the public
    :class:`random.Random` API: ``randint`` per gap, then the reference
    zone draw. The chunked :class:`AccessStream` must match it exactly."""
    rng = make_rng(seed, "gaps", p.name)
    lo = max(1, int(p.mean_gap * 0.5))
    hi = max(lo, int(p.mean_gap * 1.5))
    addresses = reference_addresses(p.zones, seed=seed, scale=scale)
    while True:
        yield rng.randint(lo, hi), next(addresses)


class TestChunkedStream:
    #: More than three refills.
    COUNT = 3 * AccessStream.CHUNK + 517

    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("seed", [0, 9])
    def test_catalog_matches_reference(self, name, seed):
        p = PROFILES[name]
        stream = p.stream(seed=seed, scale=0.5)
        reference = reference_stream(p, seed=seed, scale=0.5)
        for _ in range(self.COUNT):
            assert stream.next_access() == next(reference)

    def test_phased_matches_reference(self):
        profile = PhasedProfile(
            [(get_profile("179.art"), 4_000), (get_profile("470.lbm"), 3_000)]
        )
        stream = profile.stream(seed=5)
        references = [
            reference_stream(p, seed=derive_seed(5, "phase", i, p.name))
            for i, (p, _) in enumerate(profile.phases)
        ]
        phase, in_phase = 0, 0
        for _ in range(self.COUNT):
            gap, addr = next(references[phase])
            assert stream.next_access() == (gap, addr + phase * stream.PHASE_STRIDE)
            in_phase += gap
            if in_phase >= profile.phases[phase][1]:
                phase, in_phase = (phase + 1) % 2, 0
        assert stream.phase_switches > 6

    @pytest.mark.parametrize("count", [0, 1, 5, AccessStream.CHUNK, AccessStream.CHUNK + 3])
    def test_generated_counts_handed_out(self, count):
        stream = profile().stream(seed=6)
        for _ in range(count):
            stream.next_access()
        assert stream.generated == count
