"""Performance counters for tenant runs: the service-cost model.

PriSM-F and PriSM-Q read performance counters (``cpi``, ``ipc``,
``llc_stall_cpi``) that normally come from the CPU timing model. A
key-value cache tenant has no pipeline — its analogue of "cycles" is
service cost: a hit is served from cache, a miss pays the backing-store
fetch. :class:`TenantPerfProvider` maps interval hit/miss counters
through that two-point cost model, so the paper's fairness and QoS
policies run unchanged with *requests* standing in for instructions and
*service cost* standing in for cycles.

The provider reads the cache's live interval counters at the moment the
scheme (or the telemetry recorder) asks, inside the interval boundary,
so the values are exact.
"""

from __future__ import annotations

__all__ = ["HIT_COST", "MISS_COST", "TenantPerfProvider"]

#: Service cost of a cache hit, in abstract cost units ("cycles").
HIT_COST = 2.0
#: Service cost of a miss (backing-store fetch + refill).
MISS_COST = 50.0


class TenantPerfProvider:
    """Interval performance counters derived from cache hit/miss counts.

    Satisfies both consumer protocols: the allocation policies'
    ``ctx.perf`` (``cpi``/``ipc``/``llc_stall_cpi``) and the telemetry
    recorder's sample provider (``interval_instructions``/``ipc``).
    """

    def __init__(
        self, cache, hit_cost: float = HIT_COST, miss_cost: float = MISS_COST
    ) -> None:
        if miss_cost < hit_cost:
            raise ValueError("miss_cost must be >= hit_cost")
        self.cache = cache
        self.hit_cost = hit_cost
        self.miss_cost = miss_cost

    def _interval(self, core: int):
        stats = self.cache.stats
        return stats.interval_hits[core], stats.interval_misses[core]

    def interval_instructions(self, core: int) -> int:
        """Requests the tenant made this interval (the instruction analogue)."""
        hits, misses = self._interval(core)
        return hits + misses

    def cpi(self, core: int) -> float:
        """Average service cost per request this interval (0 if idle)."""
        hits, misses = self._interval(core)
        requests = hits + misses
        if requests <= 0:
            return 0.0
        return (hits * self.hit_cost + misses * self.miss_cost) / requests

    def ipc(self, core: int) -> float:
        """Requests served per unit service cost this interval."""
        hits, misses = self._interval(core)
        cost = hits * self.hit_cost + misses * self.miss_cost
        if cost <= 0.0:
            return 0.0
        return (hits + misses) / cost

    def llc_stall_cpi(self, core: int) -> float:
        """Miss-attributable extra cost per request this interval."""
        hits, misses = self._interval(core)
        requests = hits + misses
        if requests <= 0:
            return 0.0
        return misses * (self.miss_cost - self.hit_cost) / requests
