"""Tests for the zone access model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import make_rng
from repro.workloads.zones import ScanZone, UniformZone, ZoneModel


def reference_addresses(zones, seed=0, scale=1.0):
    """The zone model's addresses drawn one at a time through the public
    :class:`random.Random` API (``random`` picks the zone, ``randrange``
    the offset of a uniform zone). :meth:`ZoneModel.addresses` inlines
    CPython's ``randrange``; this is the contract it must keep.
    """
    rng = make_rng(seed, "zones")
    total = sum(z.weight for z in zones)
    cumweights = []
    acc = 0.0
    for zone in zones:
        acc += zone.weight / total
        cumweights.append(acc)
    cumweights[-1] = 1.0
    ranges = ZoneModel(zones, seed=seed, scale=scale).zone_ranges()
    scan_pos = [0] * len(zones)
    while True:
        r = rng.random()
        index = 0
        while cumweights[index] < r:
            index += 1
        base, size = ranges[index]
        if isinstance(zones[index], ScanZone):
            offset = scan_pos[index]
            scan_pos[index] = (offset + 1) % size
        else:
            offset = rng.randrange(size)
        yield base + offset


class TestZoneValidation:
    def test_uniform_rejects_bad_size(self):
        with pytest.raises(ValueError):
            UniformZone(1.0, 0)

    def test_scan_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            ScanZone(-0.5, 10)

    def test_model_needs_zones(self):
        with pytest.raises(ValueError):
            ZoneModel([])

    def test_model_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            ZoneModel([UniformZone(0.0, 10)])

    def test_model_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            ZoneModel([UniformZone(1.0, 10)], scale=0.0)


class TestAddressing:
    def test_zones_have_disjoint_ranges(self):
        model = ZoneModel([UniformZone(0.5, 10), ScanZone(0.5, 20)], seed=1)
        ranges = model.zone_ranges()
        assert ranges == [(0, 10), (10, 20)]
        assert model.footprint == 30

    def test_addresses_stay_in_footprint(self):
        model = ZoneModel([UniformZone(0.7, 50), ScanZone(0.3, 100)], seed=2)
        for addr in model.addresses(5000):
            assert 0 <= addr < model.footprint

    def test_scan_is_sequential_wraparound(self):
        model = ZoneModel([ScanZone(1.0, 5)], seed=3)
        assert model.addresses(12) == [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]

    def test_uniform_covers_zone(self):
        model = ZoneModel([UniformZone(1.0, 8)], seed=4)
        seen = set(model.addresses(2000))
        assert seen == set(range(8))

    def test_negative_count_rejected(self):
        model = ZoneModel([UniformZone(1.0, 8)], seed=4)
        with pytest.raises(ValueError):
            model.addresses(-1)


class TestRandomContract:
    MIXES = [
        [UniformZone(1.0, 1)],
        [UniformZone(1.0, 64)],
        [UniformZone(0.6, 100), ScanZone(0.4, 37)],
        [ScanZone(0.2, 5), UniformZone(0.3, 1000), UniformZone(0.5, 129)],
    ]

    @pytest.mark.parametrize("mix", range(len(MIXES)))
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matches_public_random_api(self, mix, seed):
        zones = self.MIXES[mix]
        reference = reference_addresses(zones, seed=seed, scale=1.5)
        expected = [next(reference) for _ in range(3000)]
        assert ZoneModel(zones, seed=seed, scale=1.5).addresses(3000) == expected

    @settings(max_examples=25)
    @given(st.integers(0, 2**31), st.integers(0, 300), st.integers(0, 300))
    def test_calls_concatenate(self, seed, a, b):
        zones = [UniformZone(0.5, 90), ScanZone(0.5, 7)]
        split = ZoneModel(zones, seed=seed)
        whole = ZoneModel(zones, seed=seed)
        assert split.addresses(a) + split.addresses(b) == whole.addresses(a + b)

    def test_scan_position_carries_across_calls(self):
        model = ZoneModel([ScanZone(1.0, 5)], seed=3)
        assert model.addresses(3) + model.addresses(4) == [0, 1, 2, 3, 4, 0, 1]


class TestScaling:
    def test_scale_multiplies_footprint(self):
        zones = [UniformZone(0.5, 100), ScanZone(0.5, 200)]
        assert ZoneModel(zones, scale=0.5).footprint == 150
        assert ZoneModel(zones, scale=2.0).footprint == 600

    def test_scale_never_shrinks_zone_below_one(self):
        model = ZoneModel([UniformZone(1.0, 2)], scale=0.01)
        assert model.footprint == 1


class TestDeterminism:
    def test_same_seed_same_stream(self):
        zones = [UniformZone(0.6, 64), ScanZone(0.4, 128)]
        a = ZoneModel(zones, seed=42).addresses(1000)
        b = ZoneModel(zones, seed=42).addresses(1000)
        assert a == b

    def test_different_seed_different_stream(self):
        zones = [UniformZone(1.0, 1000)]
        a = ZoneModel(zones, seed=1).addresses(100)
        b = ZoneModel(zones, seed=2).addresses(100)
        assert a != b

    @settings(max_examples=25)
    @given(st.integers(0, 2**31), st.integers(1, 500), st.integers(1, 500))
    def test_footprint_property(self, seed, size_a, size_b):
        model = ZoneModel(
            [UniformZone(0.5, size_a), ScanZone(0.5, size_b)], seed=seed
        )
        addrs = model.addresses(200)
        assert all(0 <= a < size_a + size_b for a in addrs)


class TestMixtureWeights:
    def test_weights_respected(self):
        model = ZoneModel(
            [UniformZone(0.8, 10), ScanZone(0.2, 1000)], seed=5
        )
        addrs = model.addresses(20000)
        in_first = sum(1 for a in addrs if a < 10)
        assert in_first / len(addrs) == pytest.approx(0.8, abs=0.02)
