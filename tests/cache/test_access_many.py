"""The batch path: ``SharedCache.access_many`` vs per-access ``access``.

``access_many`` re-states the ``access`` hot path as a loop over a
pre-encoded trace (:mod:`repro.cache.encode`); the tenant and scale-out
drivers replay through it. Its contract is *bit-exactness* with the
per-access path — same hits, same victims, same PriSM draws, same
interval boundaries. The certification against the naive reference runs
in every differential case (``repro-sim check fuzz``, see
tests/check/test_differential.py); here a scaled-down matrix over scheme
kind x geometry x slab size compares the two paths of the engine
directly, including policies and monitors the reference does not model
(PriSM's shadow-tag monitors, quantised distributions), plus direct tests
of the :class:`~repro.cache.cache.BatchResults` surface.
"""

import random

import pytest

from repro.cache.cache import AccessResult, BatchResults, SharedCache
from repro.cache.encode import encode_trace
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement.dip import DIPPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.core import HitMaxPolicy
from repro.core.prism import PrismScheme

GEO_S = CacheGeometry(1 << 14, 64, 4)   # 64 sets
GEO_M = CacheGeometry(1 << 16, 64, 8)   # 128 sets
GEO_L = CacheGeometry(1 << 18, 64, 16)  # 256 sets

NUM_CORES = 4


def _build(kind, geo):
    """One (policy, scheme) configuration."""
    policy = DIPPolicy(seed=3) if kind in ("dip", "prism-dip") else LRUPolicy()
    scheme = None
    if kind == "prism":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=257,
                             fallback="resample")
    elif kind == "prism-paper":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=193,
                             fallback="paper")
    elif kind == "prism-dip":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=257)
    elif kind == "prism-quant":
        scheme = PrismScheme(HitMaxPolicy(), seed=5, interval_len=129,
                             probability_bits=6)
    return SharedCache(geo, NUM_CORES, policy=policy, scheme=scheme)


def _stream(geo, seed, n):
    rng = random.Random(seed)
    naddr = geo.num_blocks * 2
    return [(rng.randrange(NUM_CORES), rng.randrange(naddr)) for _ in range(n)]


def _batched(cache, stream, slab):
    """Replay ``stream`` through ``access_many`` in calls of ``slab`` accesses."""
    results = []
    for start in range(0, len(stream), slab):
        out = cache.access_many(
            encode_trace(stream[start:start + slab], cache.geometry), collect=True
        )
        results.extend(out)
    return results


def _assert_equivalent(scalar, batched, kind):
    """Every externally visible piece of state must match."""
    assert scalar.stats.hits == batched.stats.hits
    assert scalar.stats.misses == batched.stats.misses
    assert scalar.stats.evictions == batched.stats.evictions
    assert scalar.occupancy == batched.occupancy
    assert batched.occupancy == batched.scan_occupancy()
    assert scalar.intervals_completed == batched.intervals_completed
    if scalar.scheme is not None:
        ma, mb = scalar.scheme.manager, batched.scheme.manager
        assert list(ma.probabilities) == list(mb.probabilities)
        assert list(scalar.scheme.targets) == list(batched.scheme.targets)
        assert ma.replacements == mb.replacements
        assert ma.victim_not_found == mb.victim_not_found
        shadows_a = [m for m in scalar.monitors
                     if hasattr(m, "lifetime_shadow_hits")]
        shadows_b = [m for m in batched.monitors
                     if hasattr(m, "lifetime_shadow_hits")]
        assert len(shadows_a) == len(shadows_b)
        for sa, sb in zip(shadows_a, shadows_b):
            assert sa.shared_hits == sb.shared_hits
            assert sa.shared_misses == sb.shared_misses
            assert sa.lifetime_shadow_hits == sb.lifetime_shadow_hits
            assert sa.lifetime_shadow_misses == sb.lifetime_shadow_misses
    if kind in ("dip", "prism-dip"):
        assert scalar.policy.psel == batched.policy.psel


# Two (geometry, slab, seed) triples per kind rotate all three axes while
# keeping tier-1 runtime low; the slab sizes put call boundaries both
# inside and across allocation intervals.
MATRIX = [
    ("lru", GEO_S, 2500, 0),
    ("lru", GEO_L, 1024, 1),
    ("dip", GEO_S, 37, 0),
    ("dip", GEO_M, 2500, 1),
    ("prism", GEO_M, 2500, 0),
    ("prism", GEO_S, 37, 1),
    ("prism-paper", GEO_S, 2500, 0),
    ("prism-paper", GEO_M, 1024, 1),
    ("prism-dip", GEO_M, 37, 0),
    ("prism-dip", GEO_L, 2500, 1),
    ("prism-quant", GEO_S, 2500, 1),
    ("prism-quant", GEO_L, 37, 0),
]


@pytest.mark.parametrize(
    "kind,geo,slab,seed", MATRIX,
    ids=[f"{k}-{g.num_sets}sets-slab{c}-s{s}" for k, g, c, s in MATRIX],
)
def test_batched_matches_per_access(kind, geo, slab, seed):
    stream = _stream(geo, seed, 2500)
    scalar = _build(kind, geo)
    batched = _build(kind, geo)
    scalar_results = [scalar.access(core, addr) for core, addr in stream]
    batch = _batched(batched, stream, slab)
    assert len(batch) == len(scalar_results)
    for i, (a, b) in enumerate(zip(scalar_results, batch)):
        assert tuple(a) == tuple(b), f"{kind} diverges at access {i}: {a} vs {b}"
    _assert_equivalent(scalar, batched, kind)


class TestBatchResults:
    def _results(self):
        stream = _stream(GEO_S, 21, 400)
        cache = _build("lru", GEO_S)
        return cache, stream, cache.access_many(
            encode_trace(stream, GEO_S), collect=True
        )

    def test_len_and_indexing(self):
        _, stream, batch = self._results()
        assert isinstance(batch, BatchResults)
        assert len(batch) == len(stream)
        first = batch.result(0)
        assert isinstance(first, AccessResult)
        assert not first.hit  # cold cache: the first access must miss

    def test_iteration_yields_access_results(self):
        _, stream, batch = self._results()
        materialised = list(batch)
        assert len(materialised) == len(stream)
        for i, result in enumerate(materialised):
            assert result.hit == bool(batch.hit[i])
            assert result.set_index == int(batch.set_index[i])
            assert result.evicted_core == int(batch.evicted_core[i])
            assert result.evicted_addr == int(batch.evicted_addr[i])

    def test_collect_false_returns_none(self):
        stream = _stream(GEO_S, 22, 200)
        cache = _build("lru", GEO_S)
        assert cache.access_many(encode_trace(stream, GEO_S)) is None
        assert sum(cache.stats.misses) > 0
