"""Differential fuzzing: the fast engine vs. the naive reference.

A case is a (scheme, geometry, seed) triple plus an access-stream length;
:func:`run_case` builds the optimised engine through the real scheme
registry and the oracle through :func:`repro.check.reference.build_reference`,
replays the same synthetic stream through both and demands **exact**
equality:

- per access: hit/miss, set index, evicted core and evicted block address;
- per interval boundary: the installed eviction distribution ``E_i`` and
  the allocation targets ``T_i``, float-for-float;
- at end of run: occupancy, per-core hit/miss/eviction counters, a full
  occupancy rescan, the replacement/fallback counters and (for DIP) the
  PSEL state.

Both simulators stand in for the same idealised hardware — the same
seeded PRNG streams (via :mod:`repro.util.rng` labels) and the same float
arithmetic — so any inequality at all is a bug in one of them, never
tolerance noise. Comparison stops at the first divergence: everything
after it is downstream corruption, not signal.

PriSM-F and PriSM-Q read performance counters the raw cache does not
have; :class:`SyntheticPerf` supplies deterministic per-core CPI/IPC
figures so the fuzzer can exercise Algorithms 2 and 3 without dragging in
the timing model.

Every case certifies the engine twice: per access (:func:`compare_run`),
then on a fresh engine and reference through the batch path
(:func:`compare_batched`), which replays the stream through
:meth:`~repro.cache.cache.SharedCache.access_many` in a case-derived
number of slabs so that state carry-over between calls is swept too.
Both passes make the same per-access, per-boundary and end-of-run
equality demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.check.reference import REFERENCE_SCHEMES, ReferenceCache, build_reference
from repro.experiments.schemes import build_scheme
from repro.util.rng import make_rng

__all__ = [
    "CaseResult",
    "DifferentialCase",
    "Divergence",
    "SyntheticPerf",
    "compare_batched",
    "compare_run",
    "fuzz",
    "make_stream",
    "random_case",
    "run_case",
    "slab_count",
]

#: Schemes whose allocation policy reads performance counters.
_NEEDS_PERF = ("prism-f", "prism-q")
#: Schemes whose target IPC derives from stand-alone IPCs.
_NEEDS_STANDALONE = ("prism-q",)


class SyntheticPerf:
    """Deterministic stand-in for the timing model's per-core counters.

    Stateless: the per-core CPI, IPC and LLC-stall figures are fixed at
    construction from ``make_rng(seed, "check-perf")``, so two instances
    built from the same ``(num_cores, seed)`` — or one instance shared by
    both simulators — always report identical values.
    """

    def __init__(self, num_cores: int, seed: int = 0) -> None:
        rng = make_rng(seed, "check-perf")
        self._cpi = [0.8 + 3.0 * rng.random() for _ in range(num_cores)]
        self._llc_fraction = [0.1 + 0.7 * rng.random() for _ in range(num_cores)]

    def cpi(self, core: int) -> float:
        return self._cpi[core]

    def ipc(self, core: int) -> float:
        return 1.0 / self._cpi[core]

    def llc_stall_cpi(self, core: int) -> float:
        return self._cpi[core] * self._llc_fraction[core]


@dataclass(frozen=True)
class DifferentialCase:
    """One fuzz case: scheme, geometry, stream shape and seeds.

    The shared-ownership axes (`sharing`/`sharing_degree`/`track_sharers`)
    and the cluster axis (`core_map`) default to the historical behaviour
    — a 30% global shared pool, no sharer masks, no clustering — so the
    original case space is a strict subset of the new one.
    """

    scheme: str
    num_cores: int = 4
    num_sets: int = 8
    assoc: int = 4
    seed: int = 0
    accesses: int = 2000
    scheme_kwargs: Optional[dict] = None
    #: Fraction of accesses aimed at a shared pool (cross-core reuse).
    sharing: float = 0.3
    #: Cores per sharing group; 0 = one global pool (the historical mix).
    sharing_degree: int = 0
    #: Maintain and compare per-block sharer bitmasks across simulators.
    track_sharers: bool = False
    #: Cluster map (real core -> accounting group); ``None`` = identity.
    core_map: Optional[Tuple[int, ...]] = None

    @property
    def acct_cores(self) -> int:
        """Accounting width: clusters when mapped, else cores."""
        return max(self.core_map) + 1 if self.core_map else self.num_cores

    @property
    def geometry(self) -> CacheGeometry:
        return CacheGeometry(
            self.num_sets * self.assoc * 64, block_bytes=64, assoc=self.assoc
        )


@dataclass(frozen=True)
class Divergence:
    """One engine-vs-reference disagreement.

    ``index`` is the 0-based access at which it was detected, or ``-1``
    for end-of-run state comparisons.
    """

    index: int
    what: str
    engine: object
    reference: object

    def __str__(self) -> str:
        where = f"access {self.index}" if self.index >= 0 else "end of run"
        return (
            f"{self.what} diverged at {where}: "
            f"engine {self.engine!r} != reference {self.reference!r}"
        )


@dataclass
class CaseResult:
    """Outcome of one differential case."""

    case: DifferentialCase
    divergences: List[Divergence] = field(default_factory=list)
    accesses_run: int = 0
    intervals: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def make_stream(case: DifferentialCase) -> List[Tuple[int, int]]:
    """Generate the case's ``(core, block_addr)`` access stream.

    A three-way address mix per access — a small per-core hot pool (hits
    and stable ownership), a shared pool (cross-core ownership churn, the
    food of the fallback paths) and cold random addresses (misses on full
    sets, so replacements and interval boundaries keep firing).

    ``case.sharing`` sets the shared band's width; ``case.sharing_degree``
    splits the single global pool into per-group pools of that many
    adjacent cores (the shared-data family's access shape). The defaults
    reproduce the historical stream byte for byte.
    """
    rng = make_rng(case.seed, "check-stream")
    num_blocks = case.num_sets * case.assoc
    hot_pools = [
        [rng.getrandbits(20) for _ in range(max(1, num_blocks // case.num_cores))]
        for _ in range(case.num_cores)
    ]
    degree = case.sharing_degree
    num_pools = 1 if degree <= 0 else (case.num_cores + degree - 1) // degree
    shared_pools = [
        [rng.getrandbits(20) for _ in range(max(1, num_blocks // 2))]
        for _ in range(num_pools)
    ]
    shared_band = 0.45 + case.sharing
    stream = []
    for _ in range(case.accesses):
        core = rng.randrange(case.num_cores)
        region = rng.random()
        if region < 0.45:
            pool = hot_pools[core]
            addr = pool[rng.randrange(len(pool))]
        elif region < shared_band:
            pool = shared_pools[core // degree if degree > 0 else 0]
            addr = pool[rng.randrange(len(pool))]
        else:
            addr = rng.getrandbits(20)
        stream.append((core, addr))
    return stream


def compare_run(
    cache: SharedCache,
    reference: ReferenceCache,
    stream: Sequence[Tuple[int, int]],
) -> List[Divergence]:
    """Replay ``stream`` through both simulators; return the divergences.

    Stops at the first disagreement (at most one per-access/per-interval
    divergence is reported; end-of-run checks only run on a clean replay,
    where they can still catch counter drift the access results hide).
    """
    divergences: List[Divergence] = []
    scheme = cache.scheme
    ref_scheme = reference.scheme
    intervals_seen = 0

    for index, (core, addr) in enumerate(stream):
        engine_result = cache.access(core, addr)
        ref_result = reference.access(core, addr)
        engine_tuple = (
            engine_result.hit,
            engine_result.set_index,
            engine_result.evicted_core,
            engine_result.evicted_addr,
        )
        if engine_tuple != ref_result.as_tuple():
            divergences.append(
                Divergence(index, "access", engine_tuple, ref_result.as_tuple())
            )
            return divergences
        if cache.intervals_completed != reference.intervals_completed:
            divergences.append(
                Divergence(
                    index,
                    "intervals_completed",
                    cache.intervals_completed,
                    reference.intervals_completed,
                )
            )
            return divergences
        if ref_scheme is not None and reference.intervals_completed > intervals_seen:
            intervals_seen = reference.intervals_completed
            engine_e = list(scheme.eviction_probabilities)
            if engine_e != ref_scheme.probabilities:
                divergences.append(
                    Divergence(
                        index, "eviction_probabilities", engine_e, ref_scheme.probabilities
                    )
                )
                return divergences
            engine_t = list(scheme.targets)
            if engine_t != ref_scheme.targets:
                divergences.append(
                    Divergence(index, "targets", engine_t, ref_scheme.targets)
                )
                return divergences

    def check(what: str, engine_value, ref_value) -> None:
        if engine_value != ref_value:
            divergences.append(Divergence(-1, what, engine_value, ref_value))

    check("occupancy", list(cache.occupancy), reference.occupancy)
    check("scan_occupancy", cache.scan_occupancy(), reference.scan_occupancy())
    check("hits", list(cache.stats.hits), reference.hits)
    check("misses", list(cache.stats.misses), reference.misses)
    check("evictions", list(cache.stats.evictions), reference.evictions)
    if ref_scheme is not None:
        check("replacements", scheme.manager.replacements, ref_scheme.replacements)
        check(
            "victim_not_found",
            scheme.manager.victim_not_found,
            ref_scheme.victim_not_found,
        )
    engine_psel = getattr(cache.policy, "psel", None)
    ref_psel = getattr(reference.policy, "psel", None)
    if engine_psel is not None or ref_psel is not None:
        check("psel", engine_psel, ref_psel)
    if cache.track_sharers:
        check("sharers", cache.scan_sharers(), reference.scan_sharers())
    if cache.core_map is not None:
        check("charges", cache.scan_charges(), reference.scan_charges())
    return divergences


class _BoundaryProbe:
    """Telemetry stand-in capturing ``(E, T)`` at every interval boundary.

    The engine calls ``record_interval`` from inside its boundary
    handler, after the scheme reallocated and before
    ``intervals_completed`` increments — so the snapshots carry exactly
    the per-boundary state a per-access replay observes.
    """

    def __init__(self) -> None:
        self.snapshots: List[tuple] = []

    def note_alloc_seconds(self, seconds: float) -> None:
        pass

    def record_interval(self, cache) -> None:
        scheme = cache.scheme
        self.snapshots.append(
            (
                cache.intervals_completed + 1,
                list(scheme.eviction_probabilities),
                list(scheme.targets),
            )
        )


def _replay_reference(reference: ReferenceCache, stream: Sequence[Tuple[int, int]]):
    """Per-access replay of the reference.

    Returns the per-access result tuples and the boundary snapshots in
    the same shape :class:`_BoundaryProbe` records.
    """
    tuples = []
    boundaries = []
    seen = 0
    scheme = reference.scheme
    for core, addr in stream:
        tuples.append(reference.access(core, addr).as_tuple())
        if scheme is not None and reference.intervals_completed > seen:
            seen = reference.intervals_completed
            boundaries.append((seen, list(scheme.probabilities), list(scheme.targets)))
    return tuples, boundaries


def _end_state(sim) -> dict:
    """End-of-run state of either simulator, keyed for comparison."""
    state = {
        "occupancy": list(sim.occupancy),
        "scan_occupancy": list(sim.scan_occupancy()),
        "intervals_completed": sim.intervals_completed,
    }
    stats = getattr(sim, "stats", None)
    if stats is not None:
        state["hits"] = list(stats.hits)
        state["misses"] = list(stats.misses)
        state["evictions"] = list(stats.evictions)
    else:
        state["hits"] = list(sim.hits)
        state["misses"] = list(sim.misses)
        state["evictions"] = list(sim.evictions)
    scheme = sim.scheme
    if scheme is not None:
        manager = getattr(scheme, "manager", scheme)
        state["replacements"] = manager.replacements
        state["victim_not_found"] = manager.victim_not_found
    psel = getattr(sim.policy, "psel", None)
    if psel is not None:
        state["psel"] = psel
    if sim.track_sharers:
        state["sharers"] = sim.scan_sharers()
    if sim.core_map is not None:
        state["charges"] = sim.scan_charges()
    return state


def compare_batched(
    engine: SharedCache,
    reference: ReferenceCache,
    stream: Sequence[Tuple[int, int]],
    label: str = "",
    slabs: int = 3,
) -> List[Divergence]:
    """Batched engine vs per-access reference: same checks as :func:`compare_run`.

    The reference replays per access, snapshotting ``E``/``T`` at each
    boundary; ``engine`` replays the same stream through
    :meth:`~repro.cache.cache.SharedCache.access_many` in ``slabs`` batch
    calls (exercising state carry-over between calls) with a boundary
    probe attached. Per-access results, the ordered boundary snapshots,
    and the end-of-run state must all match exactly.
    """
    from repro.cache.encode import encode_trace

    r_tuples, r_bounds = _replay_reference(reference, stream)
    probe = None
    if engine.scheme is not None:
        probe = _BoundaryProbe()
        engine.set_telemetry(probe)
    e_tuples = []
    n = len(stream)
    cut = max(1, n // max(1, slabs))
    for start in range(0, n, cut):
        out = engine.access_many(
            encode_trace(stream[start : start + cut], engine.geometry),
            collect=True,
        )
        e_tuples.extend(tuple(r) for r in out)

    divergences: List[Divergence] = []
    for index, (engine_tuple, ref_tuple) in enumerate(zip(e_tuples, r_tuples)):
        if engine_tuple != ref_tuple:
            divergences.append(
                Divergence(index, f"{label}access", engine_tuple, ref_tuple)
            )
            return divergences
    e_bounds = probe.snapshots if probe is not None else []
    if len(e_bounds) != len(r_bounds):
        divergences.append(
            Divergence(-1, f"{label}interval boundaries", len(e_bounds), len(r_bounds))
        )
        return divergences
    for (e_k, e_e, e_t), (r_k, r_e, r_t) in zip(e_bounds, r_bounds):
        if e_k != r_k:
            divergences.append(Divergence(-1, f"{label}interval index", e_k, r_k))
            return divergences
        if e_e != r_e:
            divergences.append(
                Divergence(-1, f"{label}eviction_probabilities@interval{e_k}", e_e, r_e)
            )
            return divergences
        if e_t != r_t:
            divergences.append(
                Divergence(-1, f"{label}targets@interval{e_k}", e_t, r_t)
            )
            return divergences
    engine_state = _end_state(engine)
    ref_state = _end_state(reference)
    for what in sorted(set(engine_state) & set(ref_state)):
        if engine_state[what] != ref_state[what]:
            divergences.append(
                Divergence(-1, f"{label}{what}", engine_state[what], ref_state[what])
            )
    return divergences


def _build_engine(case: DifferentialCase, standalone_ipcs, perf) -> SharedCache:
    kwargs = dict(case.scheme_kwargs or {})
    scheme, policy = build_scheme(
        case.scheme, case.acct_cores, standalone_ipcs, **kwargs
    )
    cache = SharedCache(
        case.geometry,
        case.acct_cores,
        policy=policy,
        core_map=case.core_map,
        track_sharers=case.track_sharers,
    )
    if scheme is not None:
        scheme.perf = perf
        cache.set_scheme(scheme)
    return cache


def slab_count(case: DifferentialCase) -> int:
    """How many ``access_many`` calls the batched pass splits the stream into.

    Derived from the case seed, so the fuzzer sweeps batch granularity
    from one whole-stream call down to slabs of a few accesses (small
    slabs maximise boundary and carry-over coverage).
    """
    return 1 + case.seed % 97


def run_case(case: DifferentialCase) -> CaseResult:
    """Build the simulators for ``case``, replay the stream, compare.

    The engine is replayed against the reference per access; on a clean
    replay a fresh engine is replayed through ``access_many`` in
    :func:`slab_count` slabs against a fresh reference.
    """
    # Schemes, perf counters and stand-alone IPCs are all sized by the
    # accounting width: under clustering PriSM manages clusters, not cores.
    perf = (
        SyntheticPerf(case.acct_cores, case.seed)
        if case.scheme in _NEEDS_PERF
        else None
    )
    standalone_ipcs = None
    if case.scheme in _NEEDS_STANDALONE:
        rng = make_rng(case.seed, "check-standalone")
        standalone_ipcs = [0.5 + rng.random() for _ in range(case.acct_cores)]

    def fresh_reference() -> ReferenceCache:
        return build_reference(
            case.scheme,
            case.acct_cores,
            case.geometry,
            standalone_ipcs=standalone_ipcs,
            scheme_kwargs=case.scheme_kwargs,
            perf=perf,
            core_map=case.core_map,
            track_sharers=case.track_sharers,
        )

    stream = make_stream(case)
    reference = fresh_reference()
    divergences = compare_run(
        _build_engine(case, standalone_ipcs, perf), reference, stream
    )
    if not divergences:
        divergences = compare_batched(
            _build_engine(case, standalone_ipcs, perf),
            fresh_reference(),
            stream,
            label="batched ",
            slabs=slab_count(case),
        )
    return CaseResult(
        case=case,
        divergences=divergences,
        accesses_run=len(stream),
        intervals=reference.intervals_completed,
    )


def random_case(
    rng,
    schemes: Optional[Sequence[str]] = None,
    sharing: bool = False,
) -> DifferentialCase:
    """Draw one random case from ``rng`` (a ``random.Random``).

    ``sharing=True`` additionally sweeps the shared-ownership and cluster
    axes: scale-out core counts, grouped sharing pools of varying degree
    and width, sharer-bitmask tracking, and random (canonicalised)
    cluster maps. With the default ``sharing=False`` the draw sequence —
    and therefore every historical case — is unchanged.
    """
    schemes = tuple(schemes) if schemes else tuple(sorted(REFERENCE_SCHEMES))
    name = schemes[rng.randrange(len(schemes))]
    num_cores = rng.randrange(2, 7)
    assoc = (2, 4, 8)[rng.randrange(3)]
    num_sets = (2, 4, 8, 16)[rng.randrange(4)]
    kwargs = {}
    if name.startswith("prism"):
        kwargs["seed"] = rng.getrandbits(16)
        if rng.random() < 0.5:
            kwargs["fallback"] = "paper"
        if rng.random() < 0.3:
            kwargs["probability_bits"] = (4, 8)[rng.randrange(2)]
        if rng.random() < 0.3:
            kwargs["bias_correction"] = False
        if rng.random() < 0.3:
            kwargs["sample_shift"] = 0
    elif name == "dip":
        kwargs["seed"] = rng.getrandbits(16)
        if rng.random() < 0.3:
            kwargs["leader_sets"] = 2
    extra = {}
    if sharing:
        if rng.random() < 0.3:
            num_cores = (8, 16, 32)[rng.randrange(3)]
        if rng.random() < 0.6:
            extra["track_sharers"] = True
        if rng.random() < 0.5:
            extra["sharing_degree"] = (2, 3, 4)[rng.randrange(3)]
            extra["sharing"] = (0.15, 0.3, 0.5)[rng.randrange(3)]
        if rng.random() < 0.5:
            # Random surjective cluster map: draw raw group labels, then
            # relabel by first appearance so ids are dense in [0, K).
            raw_k = rng.randrange(1, num_cores + 1)
            raw = [rng.randrange(raw_k) for _ in range(num_cores)]
            relabel: dict = {}
            extra["core_map"] = tuple(
                relabel.setdefault(g, len(relabel)) for g in raw
            )
    return DifferentialCase(
        scheme=name,
        num_cores=num_cores,
        num_sets=num_sets,
        assoc=assoc,
        seed=rng.getrandbits(32),
        accesses=rng.randrange(400, 2501),
        scheme_kwargs=kwargs or None,
        **extra,
    )


def fuzz(
    cases: int = 200,
    seed: int = 0,
    schemes: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    sharing: bool = False,
) -> List[CaseResult]:
    """Run ``cases`` random differential cases; return every result.

    The case stream is fully determined by ``seed`` (via
    ``make_rng(seed, "check-fuzz")``), so a failing campaign reproduces
    exactly from its seed. ``sharing`` enables the shared-ownership and cluster axes (see
    :func:`random_case`).
    """
    rng = make_rng(seed, "check-fuzz")
    schemes = tuple(schemes) if schemes else tuple(sorted(REFERENCE_SCHEMES))
    results = []
    for index in range(cases):
        case = random_case(rng, schemes=schemes, sharing=sharing)
        result = run_case(case)
        results.append(result)
        if progress is not None:
            if result.ok:
                if (index + 1) % 25 == 0:
                    progress(f"[{index + 1}/{cases}] ok so far")
            else:
                progress(
                    f"[{index + 1}/{cases}] DIVERGED {case}: "
                    + "; ".join(str(d) for d in result.divergences)
                )
    return results
