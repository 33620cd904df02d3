"""Per-tenant SLO metrics for the multi-tenant cache scenario.

A tenant's service quality in a shared key-value cache is not one number:
the operator watches the *hit rate* (throughput), the *p99 miss-run
length* (tail latency — a long unbroken run of misses is a stalled
tenant), the *SLO-attainment fraction* (how often the tenant met its
target, interval by interval), and *fairness* across tenants. This module
computes all four from data the engine already produces: per-access hit
arrays (chunked, via :class:`MissRunTracker`) and the per-interval
samples a :class:`~repro.telemetry.TelemetryRecorder` records.

SLO targets are tenant-relative, mirroring PriSM-Q's
``target_ipc_fraction``: tenant ``i``'s target hit rate is
``slo_fraction * solo_hit_rate[i]`` — what the tenant achieved alone on
the full cache, discounted. An absolute target would penalise scan
tenants that could never hit it even unshared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_SLO_FRACTION",
    "MissRunTracker",
    "TenantSLOReport",
    "jain_fairness",
    "slo_attainment",
    "tenant_hit_rates",
]

#: Default tenant-relative SLO: meet 80% of your solo hit rate.
DEFAULT_SLO_FRACTION = 0.8


def tenant_hit_rates(hits: Sequence[int], misses: Sequence[int]) -> List[float]:
    """Per-tenant hit rate (0.0 for tenants that made no requests)."""
    rates = []
    for h, m in zip(hits, misses):
        total = h + m
        rates.append(h / total if total else 0.0)
    return rates


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index over ``values``: 1 = equal, 1/n = one-takes-all."""
    values = list(values)
    if not values:
        return 1.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    if sum_of_squares == 0.0:
        return 1.0
    return square_of_sum / (len(values) * sum_of_squares)


class MissRunTracker:
    """Streaming per-tenant miss-run-length distribution.

    Consumes ``(cores, hit)`` arrays chunk by chunk (any chunking — runs
    spanning chunk boundaries carry over), and answers p99 queries over
    every completed run plus the currently open one. Memory is bounded by
    the number of *distinct* run lengths, not the number of runs.
    """

    def __init__(self, num_tenants: int) -> None:
        self.num_tenants = num_tenants
        self._counts: List[Dict[int, int]] = [{} for _ in range(num_tenants)]
        self._open: List[int] = [0] * num_tenants

    def update(self, cores: np.ndarray, hit: np.ndarray) -> None:
        """Fold in one chunk of per-access outcomes (in access order)."""
        cores = np.asarray(cores)
        miss = ~np.asarray(hit, dtype=bool)
        for tenant in range(self.num_tenants):
            lane = miss[cores == tenant]
            if lane.size == 0:
                continue
            padded = np.concatenate(([0], lane.astype(np.int8), [0]))
            edges = np.diff(padded)
            starts = np.flatnonzero(edges == 1)
            ends = np.flatnonzero(edges == -1)
            lengths = (ends - starts).tolist()
            carry = self._open[tenant]
            if carry:
                if lane[0]:
                    # The open run continues into this chunk's first run.
                    lengths[0] += carry
                else:
                    self._record(tenant, carry)
                self._open[tenant] = 0
            if lengths and lane[-1]:
                # Last run reaches the chunk edge: keep it open.
                self._open[tenant] = lengths.pop()
            for length in lengths:
                self._record(tenant, length)

    def _record(self, tenant: int, length: int) -> None:
        counts = self._counts[tenant]
        counts[length] = counts.get(length, 0) + 1

    def percentile(self, tenant: int, q: float = 0.99) -> int:
        """Smallest run length covering fraction ``q`` of this tenant's runs."""
        counts = dict(self._counts[tenant])
        if self._open[tenant]:
            counts[self._open[tenant]] = counts.get(self._open[tenant], 0) + 1
        total = sum(counts.values())
        if total == 0:
            return 0
        threshold = q * total
        cumulative = 0
        for length in sorted(counts):
            cumulative += counts[length]
            if cumulative >= threshold:
                return length
        return max(counts)

    def p99_all(self) -> List[int]:
        return [self.percentile(t, 0.99) for t in range(self.num_tenants)]


def slo_attainment(
    samples: Sequence, num_tenants: int, targets: Sequence[float]
) -> List[float]:
    """Fraction of telemetry intervals each tenant met its hit-rate target.

    Only intervals where the tenant actually made requests count (an idle
    interval neither meets nor misses an SLO). Tenants with no active
    intervals report 1.0 — no demand, no violation.

    Args:
        samples: :class:`~repro.telemetry.IntervalSample` records.
        num_tenants: tenant/core count.
        targets: per-tenant target hit rates.
    """
    met = [0] * num_tenants
    active = [0] * num_tenants
    for sample in samples:
        requests = sample.hits + sample.misses
        if requests <= 0:
            continue
        tenant = sample.core
        active[tenant] += 1
        if sample.hits / requests >= targets[tenant]:
            met[tenant] += 1
    return [
        met[t] / active[t] if active[t] else 1.0 for t in range(num_tenants)
    ]


@dataclass
class TenantSLOReport:
    """The per-tenant SLO scorecard of one shared run.

    ``fairness`` is Jain's index over *normalised service* (shared hit
    rate over solo hit rate), so a scheme that starves a scan tenant the
    same amount as a hot tenant still scores as fair.
    """

    tenants: List[str]
    slo_fraction: float
    solo_hit_rates: List[float]
    hit_rates: List[float]
    slo_targets: List[float]
    slo_attainment: List[float]
    p99_miss_run: List[int]
    fairness: float = 1.0
    requests: List[int] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        tenants: Sequence[str],
        hits: Sequence[int],
        misses: Sequence[int],
        solo_hit_rates: Sequence[float],
        samples: Sequence,
        miss_runs: MissRunTracker,
        slo_fraction: float = DEFAULT_SLO_FRACTION,
    ) -> "TenantSLOReport":
        rates = tenant_hit_rates(hits, misses)
        targets = [slo_fraction * solo for solo in solo_hit_rates]
        service = [
            rate / solo if solo > 0 else 1.0
            for rate, solo in zip(rates, solo_hit_rates)
        ]
        return cls(
            tenants=list(tenants),
            slo_fraction=slo_fraction,
            solo_hit_rates=list(solo_hit_rates),
            hit_rates=rates,
            slo_targets=targets,
            slo_attainment=slo_attainment(samples, len(tenants), targets),
            p99_miss_run=miss_runs.p99_all(),
            fairness=jain_fairness(service),
            requests=[h + m for h, m in zip(hits, misses)],
        )

    def to_dict(self) -> dict:
        return {
            "tenants": list(self.tenants),
            "slo_fraction": self.slo_fraction,
            "solo_hit_rates": list(self.solo_hit_rates),
            "hit_rates": list(self.hit_rates),
            "slo_targets": list(self.slo_targets),
            "slo_attainment": list(self.slo_attainment),
            "p99_miss_run": list(self.p99_miss_run),
            "fairness": self.fairness,
            "requests": list(self.requests),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSLOReport":
        return cls(
            tenants=list(data["tenants"]),
            slo_fraction=data["slo_fraction"],
            solo_hit_rates=list(data["solo_hit_rates"]),
            hit_rates=list(data["hit_rates"]),
            slo_targets=list(data["slo_targets"]),
            slo_attainment=list(data["slo_attainment"]),
            p99_miss_run=list(data["p99_miss_run"]),
            fairness=data["fairness"],
            requests=list(data.get("requests", [])),
        )
