"""Memshare-style cliff-aware greedy allocation.

Memshare's observation for multi-tenant web caches: tenant hit-rate
curves are not concave — a scan or a tight loop has a *cliff* (zero
marginal hits until the allocation covers the working set, then all the
hits at once), so slope-following allocators park capacity on the flat
region below a cliff where it earns nothing. The cliff-aware answer is
two-part:

- every tenant keeps a small *reserved* share of the cache (Memshare's
  guaranteed memory), so no tenant is starved to zero;
- the remaining capacity is allocated greedily by *lookahead* marginal
  utility — the best hits-per-block over **any** extension of the
  current allocation, not just the next block — so a cliff is either
  cleared in full or not climbed at all.

Utility curves come from the shadow tags' per-way stand-alone hit
counters (:meth:`~repro.cache.shadow.ShadowTagMonitor.hits_with_ways`),
the same UMON data UCP reads. Targets are computed in way-granularity
steps and emitted as occupancy fractions, so the policy plugs into a
plain :class:`~repro.core.prism.PrismScheme` — eviction probabilities
become the reclaim pressure that enforces the partition.
"""

from __future__ import annotations

from typing import List

from repro.core.allocation.base import (
    AllocationContext,
    AllocationPolicy,
    normalize_targets,
)

__all__ = ["CliffAwarePolicy"]


class CliffAwarePolicy(AllocationPolicy):
    """Greedy lookahead partitioning with per-tenant reserves.

    Args:
        reserve_fraction: guaranteed cache fraction per tenant, applied as
            a floor after the greedy pass (clamped so the floors of all
            tenants never exceed the whole cache).
    """

    name = "cliff-aware"

    def __init__(self, reserve_fraction: float = 0.05) -> None:
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError(
                f"reserve_fraction must be in [0, 1), got {reserve_fraction}"
            )
        self.reserve_fraction = reserve_fraction

    def compute_targets(self, ctx: AllocationContext) -> List[float]:
        shadow = ctx.shadow
        n = ctx.num_cores
        assoc = shadow.assoc
        curves = [
            [shadow.hits_with_ways(core, w) for w in range(assoc + 1)]
            for core in range(n)
        ]
        ways = self._greedy_lookahead(curves, assoc)
        if ways is None:
            # Cold shadow tags (no sampled hits yet): hold current shares.
            return normalize_targets(ctx.occupancy)
        reserve = min(self.reserve_fraction, 1.0 / n)
        targets = [max(w / assoc, reserve) for w in ways]
        return normalize_targets(targets)

    @staticmethod
    def _greedy_lookahead(curves: List[List[int]], assoc: int):
        """Allocate ``assoc`` way-units by best lookahead density.

        Returns per-tenant way counts, or ``None`` when every curve is
        flat at zero (nothing to optimise for).
        """
        n = len(curves)
        if not any(curve[-1] for curve in curves):
            return None
        ways = [0] * n
        remaining = assoc
        while remaining > 0:
            best_density = 0.0
            best_tenant = -1
            best_step = 0
            for tenant in range(n):
                held = ways[tenant]
                if held >= assoc:
                    continue
                base = curves[tenant][held]
                limit = min(assoc, held + remaining)
                for w in range(held + 1, limit + 1):
                    density = (curves[tenant][w] - base) / (w - held)
                    # Strict '>' keeps ties on the lowest tenant index and
                    # the shortest step: deterministic across platforms.
                    if density > best_density:
                        best_density = density
                        best_tenant = tenant
                        best_step = w - held
            if best_tenant < 0:
                # Residual capacity earns no hits anywhere: spread it evenly
                # over the tenants with headroom.
                open_tenants = [t for t in range(n) if ways[t] < assoc]
                for i in range(remaining):
                    ways[open_tenants[i % len(open_tenants)]] += 1
                break
            ways[best_tenant] += best_step
            remaining -= best_step
        return ways
