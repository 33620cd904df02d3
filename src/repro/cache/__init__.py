"""Set-associative shared-cache substrate.

This package provides the hardware model that every management scheme in
:mod:`repro.partitioning` and the PriSM framework in :mod:`repro.core` plug
into:

- :class:`~repro.cache.geometry.CacheGeometry` — size/associativity/block
  arithmetic,
- :class:`~repro.cache.cache.SharedCache` — the shared last-level cache with
  per-core occupancy counters and interval bookkeeping,
- replacement policies (:mod:`repro.cache.replacement`) — LRU, coarse
  timestamp LRU, DIP (LIP/BIP with set dueling), SRRIP, random,
- monitors — sampled per-core shadow tags with per-recency-position hit
  counters (:class:`~repro.cache.shadow.ShadowTagMonitor`), which double as
  UCP's UMON utility monitors,
- batch replay — :meth:`~repro.cache.cache.SharedCache.access_many` over
  traces pre-encoded by :mod:`repro.cache.encode`.
"""

from repro.cache.block import CacheBlock
from repro.cache.cacheset import CacheSet
from repro.cache.geometry import CacheGeometry
from repro.cache.cache import AccessResult, SharedCache
from repro.cache.history import IntervalHistory
from repro.cache.stats import CacheStats
from repro.cache.shadow import ShadowTagMonitor

__all__ = [
    "AccessResult",
    "CacheBlock",
    "CacheGeometry",
    "CacheSet",
    "CacheStats",
    "IntervalHistory",
    "SharedCache",
    "ShadowTagMonitor",
]
