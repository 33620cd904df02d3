"""Multi-tenant key-value cache traces (the PriSM-as-memcached family).

Memshare frames datacenter web caching as the same problem the paper
solves for cores: many tenants contend for one cache, and the operator
must decide who keeps their blocks. This family generates per-tenant
key-value request streams — Zipfian-popularity lookups, sequential
scans, and phase-shifting working sets — interleaved into one shared
trace where *tenant index = core index*, so every scheme in the
repertoire (PriSM-H/F/Q, LRU, the cliff-aware baseline) runs unchanged.

Design constraints, all load-bearing:

- **Lazy and bounded.** Traces span millions of keys and any number of
  requests, but are generated chunk by chunk as numpy arrays
  (:meth:`TenantWorkload.chunks`); nothing proportional to the trace
  length is ever held in memory, and each chunk encodes directly via
  :func:`repro.cache.encode.encode_accesses` for batch replay.
- **Deterministic.** The stream is a pure function of the workload
  identity and the seed: tenant interleaving and per-tenant key draws
  come from independent :func:`~repro.util.rng.derive_seed`-labelled
  PCG64 streams, and per-tenant draws are consumed in request order, so
  the concatenated trace does not depend on the chunk size, and
  neither does a replay's result.
- **Addressable.** Tenant ``t``'s key ``k`` maps to block address
  ``t * 2**36 + permute(k)`` — the same per-owner address stride the
  timing model uses — where ``permute`` is an affine bijection that
  decorrelates popularity rank from cache-set index (scans stay
  sequential on purpose).

Zipfian draws use the continuous inverse-CDF power-law approximation
(exact Zipf normalisation over millions of keys is O(N); the
approximation is O(1) per draw and preserves the hot-key mass that
drives cache behaviour).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.util.rng import derive_seed
from repro.workloads.registry import WorkloadSource, register_family

__all__ = [
    "TenantSpec",
    "TenantWorkload",
    "TENANT_PRESETS",
    "get_tenant_workload",
    "tenant_presets",
]

#: Bump when trace generation changes: the version is part of the
#: workload identity, so old campaign fingerprints never collide with
#: traces generated under new rules.
TENANT_FAMILY_VERSION = 1

#: Per-tenant address stride (mirrors the timing model's per-core stride).
TENANT_ADDRESS_STRIDE = 1 << 36

#: Default generation chunk, in requests.
DEFAULT_CHUNK = 1 << 16

_PATTERNS = ("zipfian", "scan", "phase")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic model.

    Attributes:
        name: tenant label (unique within a workload).
        pattern: ``"zipfian"`` (skewed point lookups), ``"scan"``
            (sequential wrap-around sweep), or ``"phase"`` (Zipfian over
            a working-set region that shifts every ``phase_period``
            requests).
        keys: working-set size in distinct keys (= cache blocks).
        skew: Zipf exponent ``s`` for zipfian/phase patterns.
        rate: relative request-rate weight against the other tenants.
        phases: number of disjoint key regions a ``"phase"`` tenant
            cycles through.
        phase_period: requests between working-set shifts.
    """

    name: str
    pattern: str = "zipfian"
    keys: int = 1 << 20
    skew: float = 0.9
    rate: float = 1.0
    phases: int = 4
    phase_period: int = 50_000

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ValueError(
                f"pattern must be one of {_PATTERNS}, got {self.pattern!r}"
            )
        if self.keys < 1:
            raise ValueError(f"keys must be >= 1, got {self.keys}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.skew < 0:
            raise ValueError(f"skew must be >= 0, got {self.skew}")
        if self.phases < 1 or self.phase_period < 1:
            raise ValueError("phases and phase_period must be >= 1")


def _power_law_keys(u: np.ndarray, n: int, s: float) -> np.ndarray:
    """Inverse-CDF power-law ranks in ``[0, n)`` from uniforms ``u``."""
    if abs(s - 1.0) < 1e-9:
        x = np.power(n + 1.0, u)
    else:
        t = math.pow(n + 1.0, 1.0 - s)
        x = np.power(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s))
    ranks = np.floor(x).astype(np.int64) - 1
    return np.clip(ranks, 0, n - 1)


def _coprime_multiplier(n: int) -> int:
    """An affine-permutation multiplier coprime with ``n`` (Knuth seed)."""
    if n <= 2:
        return 1
    m = 2654435761 % n
    m = max(m, 1)
    while math.gcd(m, n) != 1:
        m += 1
    return m


class _TenantStream:
    """Per-tenant draw state: consumed strictly in that tenant's request order."""

    def __init__(self, spec: TenantSpec, seed: int) -> None:
        self.spec = spec
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.position = 0  # scan cursor
        self.requests = 0  # lifetime request counter (phase schedule)
        self.multiplier = _coprime_multiplier(spec.keys)

    def draw(self, count: int) -> np.ndarray:
        """The tenant's next ``count`` keys, as int64 ranks in ``[0, keys)``."""
        spec = self.spec
        if spec.pattern == "scan":
            keys = (self.position + np.arange(count, dtype=np.int64)) % spec.keys
            self.position = int((self.position + count) % spec.keys)
            self.requests += count
            return keys
        if spec.pattern == "zipfian":
            ranks = _power_law_keys(self.rng.random(count), spec.keys, spec.skew)
        else:  # phase
            region = max(1, spec.keys // spec.phases)
            indices = self.requests + np.arange(count, dtype=np.int64)
            phase = (indices // spec.phase_period) % spec.phases
            ranks = phase * region + _power_law_keys(
                self.rng.random(count), region, spec.skew
            )
        self.requests += count
        return (ranks * self.multiplier) % spec.keys


class TenantWorkload(WorkloadSource):
    """A named set of tenants sharing one cache (tenant index = core index)."""

    kind = "tenants"

    def __init__(self, name: str, tenants: Sequence[TenantSpec]) -> None:
        if not tenants:
            raise ValueError("a tenant workload needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.name = name
        self.tenants: Tuple[TenantSpec, ...] = tuple(tenants)

    @property
    def label(self) -> str:
        return f"tenants:{self.name}"

    @property
    def num_cores(self) -> int:
        return len(self.tenants)

    @property
    def tenant_names(self) -> List[str]:
        return [t.name for t in self.tenants]

    def identity(self) -> dict:
        return {
            "kind": self.kind,
            "version": TENANT_FAMILY_VERSION,
            "name": self.name,
            "tenants": [asdict(t) for t in self.tenants],
        }

    def __repr__(self) -> str:
        return f"TenantWorkload({self.name!r}, {len(self.tenants)} tenants)"

    # -- trace generation ----------------------------------------------------

    def rate_shares(self) -> List[float]:
        total = sum(t.rate for t in self.tenants)
        return [t.rate / total for t in self.tenants]

    def solo_requests(self, index: int, total_requests: int) -> int:
        """The deterministic request budget of one tenant run in isolation."""
        return max(1, round(total_requests * self.rate_shares()[index]))

    def _streams(self, seed: int) -> List[_TenantStream]:
        return [
            _TenantStream(t, derive_seed(seed, "tenants", self.name, t.name))
            for t in self.tenants
        ]

    def chunks(
        self, total_requests: int, seed: int, chunk_size: int = DEFAULT_CHUNK
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield the interleaved shared trace as ``(cores, addrs)`` chunks.

        The concatenation over chunks is independent of ``chunk_size``:
        interleaving uses one uniform per request against the cumulative
        rate distribution, and each tenant's key stream is consumed in
        that tenant's request order.
        """
        interleave = np.random.Generator(
            np.random.PCG64(derive_seed(seed, "tenants", self.name, "interleave"))
        )
        cum = np.cumsum(self.rate_shares())
        cum[-1] = 1.0  # guard float drift; searchsorted stays in range
        streams = self._streams(seed)
        produced = 0
        while produced < total_requests:
            n = min(chunk_size, total_requests - produced)
            cores = np.searchsorted(cum, interleave.random(n), side="right").astype(
                np.int64
            )
            addrs = np.empty(n, dtype=np.int64)
            for index, stream in enumerate(streams):
                mask = cores == index
                count = int(mask.sum())
                if count:
                    addrs[mask] = index * TENANT_ADDRESS_STRIDE + stream.draw(count)
            yield cores, addrs
            produced += n

    def tenant_chunks(
        self,
        index: int,
        total_requests: int,
        seed: int,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """One tenant's isolated stream (cores all 0) for stand-alone runs.

        Uses the same per-tenant seed labels as :meth:`chunks`, so the
        solo key sequence is a prefix-equal replay of the tenant's shared
        draws.
        """
        stream = _TenantStream(
            self.tenants[index],
            derive_seed(seed, "tenants", self.name, self.tenants[index].name),
        )
        produced = 0
        while produced < total_requests:
            n = min(chunk_size, total_requests - produced)
            addrs = stream.draw(n)  # solo runs own the whole cache: no stride
            yield np.zeros(n, dtype=np.int64), addrs
            produced += n


# -- named presets -----------------------------------------------------------


def _smoke4() -> TenantWorkload:
    """Small 4-tenant mix sized for CI smokes and unit tests."""
    return TenantWorkload(
        "smoke4",
        [
            TenantSpec("alpha", pattern="zipfian", keys=40_000, skew=0.9, rate=3.0),
            TenantSpec("bravo", pattern="zipfian", keys=80_000, skew=0.6, rate=2.0),
            TenantSpec("sweeper", pattern="scan", keys=30_000, rate=1.0),
            TenantSpec(
                "shifty",
                pattern="phase",
                keys=60_000,
                skew=1.0,
                rate=1.0,
                phases=4,
                phase_period=10_000,
            ),
        ],
    )


def _web8() -> TenantWorkload:
    """The 8-tenant Zipfian+scan acceptance mix (millions of keys)."""
    return TenantWorkload(
        "web8",
        [
            TenantSpec("hot", pattern="zipfian", keys=2_000_000, skew=1.2, rate=4.0),
            TenantSpec("social", pattern="zipfian", keys=4_000_000, skew=1.0, rate=3.0),
            TenantSpec("feed", pattern="zipfian", keys=1_000_000, skew=0.8, rate=2.0),
            TenantSpec(
                "long-tail", pattern="zipfian", keys=8_000_000, skew=0.6, rate=2.0
            ),
            TenantSpec("scan-a", pattern="scan", keys=500_000, rate=1.0),
            TenantSpec("scan-b", pattern="scan", keys=50_000, rate=1.0),
            TenantSpec(
                "diurnal",
                pattern="phase",
                keys=2_000_000,
                skew=1.0,
                rate=2.0,
                phases=4,
                phase_period=100_000,
            ),
            TenantSpec(
                "batch",
                pattern="phase",
                keys=1_000_000,
                skew=0.7,
                rate=1.0,
                phases=2,
                phase_period=150_000,
            ),
        ],
    )


#: Named workloads reachable as ``"tenants:<name>"`` everywhere a mix is
#: accepted (run_workload, RunSpec, campaigns, the CLI).
TENANT_PRESETS: Dict[str, Callable[[], TenantWorkload]] = {
    "smoke4": _smoke4,
    "web8": _web8,
}


def tenant_presets() -> List[str]:
    """Registered tenant preset names, sorted."""
    return sorted(TENANT_PRESETS)


def get_tenant_workload(name: str) -> TenantWorkload:
    """Build a preset tenant workload by name.

    Raises:
        KeyError: listing the known presets.
    """
    try:
        factory = TENANT_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown tenant workload {name!r}; known: {tenant_presets()}"
        ) from None
    return factory()


register_family("tenants", get_tenant_workload)
