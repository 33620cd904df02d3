"""Differential-oracle tests: engine vs. reference, access for access.

Every case replays the engine per access and then batched through
``access_many``. The heavy 200-case campaign runs in CI (``repro-sim check
fuzz``); here a bounded fuzz plus Hypothesis-driven cases keep the tier-1
suite fast while still covering every reference scheme, and sabotage
tests demonstrate the oracle actually has teeth — an injected engine bug
is caught within a few dozen accesses, in either pass.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache.cache import SharedCache
from repro.check.differential import (
    DifferentialCase,
    _build_engine,
    compare_batched,
    compare_run,
    fuzz,
    make_stream,
    run_case,
    slab_count,
)
from repro.check.reference import REFERENCE_SCHEMES, build_reference


def _assert_ok(result):
    assert result.ok, "\n".join(str(d) for d in result.divergences)


class TestFuzz:
    def test_bounded_fuzz_finds_no_divergence(self):
        results = fuzz(cases=15, seed=3)
        for result in results:
            _assert_ok(result)
        # The random cases must actually exercise the interval machinery.
        assert sum(r.intervals for r in results) > 0
        assert sum(r.accesses_run for r in results) > 0

    def test_fuzz_is_deterministic_in_its_seed(self):
        first = fuzz(cases=4, seed=11)
        second = fuzz(cases=4, seed=11)
        assert [r.case for r in first] == [r.case for r in second]
        assert [r.divergences for r in first] == [r.divergences for r in second]

    def test_fuzz_respects_scheme_filter(self):
        results = fuzz(cases=5, seed=0, schemes=["lru", "dip"])
        assert {r.case.scheme for r in results} <= {"lru", "dip"}


@pytest.mark.parametrize("scheme", sorted(REFERENCE_SCHEMES))
def test_every_reference_scheme_agrees(scheme):
    result = run_case(DifferentialCase(scheme=scheme, seed=99, accesses=1200))
    _assert_ok(result)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    scheme=st.sampled_from(sorted(REFERENCE_SCHEMES)),
    num_cores=st.integers(2, 5),
    num_sets=st.sampled_from([2, 4, 8]),
    assoc=st.sampled_from([2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_geometries_agree(scheme, num_cores, num_sets, assoc, seed):
    case = DifferentialCase(
        scheme=scheme,
        num_cores=num_cores,
        num_sets=num_sets,
        assoc=assoc,
        seed=seed,
        accesses=600,
    )
    _assert_ok(run_case(case))


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), fallback=st.sampled_from(["resample", "paper"]))
def test_prism_fallback_modes_agree(seed, fallback):
    case = DifferentialCase(
        scheme="prism-h",
        num_sets=2,  # tiny sets maximise fallback-path traffic
        assoc=2,
        seed=seed,
        accesses=800,
        scheme_kwargs={"seed": seed % 1009, "fallback": fallback},
    )
    _assert_ok(run_case(case))


def test_oracle_detects_injected_bug():
    """Disabling hit promotion in the engine must diverge from the oracle."""
    case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                            scheme_kwargs={"seed": 1})
    cache = _build_engine(case, None, None)
    reference = build_reference(case.scheme, case.num_cores, case.geometry,
                                scheme_kwargs=case.scheme_kwargs)
    # Sabotage: no recency promotion on hits. With a scheme attached the
    # access loop calls the scheme-resolved hook, so that is what we break.
    cache.scheme._resolved_on_hit = lambda cset, block, core: None
    cache._rewire()
    divergences = compare_run(cache, reference, make_stream(case))
    assert divergences, "oracle failed to notice a broken LRU promotion"
    assert divergences[0].index >= 0  # caught during the replay, not post-hoc


def test_sane_case_is_clean_before_sabotage():
    """Companion to the sabotage test: same case, untouched engine, clean."""
    case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                            scheme_kwargs={"seed": 1})
    _assert_ok(run_case(case))


class TestSharingAxes:
    """The shared-ownership fuzz axes: sharer bitmasks and cluster maps."""

    def test_sharing_fuzz_finds_no_divergence(self):
        results = fuzz(cases=12, seed=7, sharing=True)
        for result in results:
            _assert_ok(result)

    def test_sharing_axes_are_actually_drawn(self):
        cases = [r.case for r in fuzz(cases=12, seed=7, sharing=True)]
        assert any(c.track_sharers for c in cases)
        assert any(c.core_map is not None for c in cases)
        assert any(c.sharing_degree > 0 for c in cases)

    def test_sharing_off_leaves_the_matrix_unchanged(self):
        """Default fuzz draws must stay byte-compatible with the past."""
        plain = [r.case for r in fuzz(cases=4, seed=11)]
        assert all(
            not c.track_sharers and c.core_map is None and c.sharing_degree == 0
            for c in plain
        )

    def test_core_maps_are_dense(self):
        for result in fuzz(cases=12, seed=7, sharing=True):
            core_map = result.case.core_map
            if core_map is None:
                continue
            assert len(core_map) == result.case.num_cores
            assert sorted(set(core_map)) == list(range(max(core_map) + 1))

    def test_fuzzer_detects_seeded_sharer_bug(self):
        """A sharer-accounting bug in the engine must be caught.

        Sabotage: flip the ``track_sharers`` slot baked into the classic
        engine's hot-path tuple, so fills stop seeding and hits stop
        OR-ing sharer bits — while ``cache.track_sharers`` (the compare
        gate) stays on. The oracle keeps proper sharer sets, so the
        end-state sharers audit must report the divergence.
        """
        case = DifferentialCase(
            scheme="lru", num_cores=4, seed=7, accesses=1500,
            sharing_degree=2, track_sharers=True,
        )
        cache = _build_engine(case, None, None)
        reference = build_reference(
            case.scheme, case.num_cores, case.geometry,
            track_sharers=True,
        )
        assert cache._hot[-1] is True  # the track_sharers slot
        cache._hot = cache._hot[:-1] + (False,)
        divergences = compare_run(cache, reference, make_stream(case))
        assert divergences, "oracle failed to notice dropped sharer accounting"
        assert any(d.what == "sharers" for d in divergences)

    def test_sharer_case_is_clean_before_sabotage(self):
        case = DifferentialCase(
            scheme="lru", num_cores=4, seed=7, accesses=1500,
            sharing_degree=2, track_sharers=True,
        )
        _assert_ok(run_case(case))


class TestBatchedPass:
    """The second half of every case: ``access_many`` against the reference.

    ``run_case`` replays a fresh engine through the batch path after the
    per-access pass, so the fuzz tests above already cover it; these
    tests pin its slab sweep and show it has teeth of its own.
    """

    def test_compare_batched_has_teeth(self):
        """Mismatched PriSM draw seeds must be caught access for access."""
        case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                                scheme_kwargs={"seed": 1})
        engine = _build_engine(case, None, None)
        reference = build_reference(case.scheme, case.num_cores, case.geometry,
                                    scheme_kwargs={"seed": 2})
        divergences = compare_batched(engine, reference, make_stream(case))
        assert divergences, "compare_batched missed a draw-stream mismatch"

    def test_slab_count_does_not_change_the_verdict(self):
        """State must carry over between access_many calls exactly."""
        case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                                scheme_kwargs={"seed": 1})
        for slabs in (1, 5, 1500):
            engine = _build_engine(case, None, None)
            reference = build_reference(case.scheme, case.num_cores,
                                        case.geometry,
                                        scheme_kwargs=case.scheme_kwargs)
            assert compare_batched(engine, reference, make_stream(case),
                                   slabs=slabs) == []

    def test_slab_count_is_swept_by_the_case_seed(self):
        counts = {slab_count(DifferentialCase(scheme="lru", seed=s))
                  for s in range(200)}
        assert min(counts) == 1 and max(counts) == 97
        assert slab_count(DifferentialCase(scheme="lru", seed=7)) == 8

    def test_run_case_detects_a_bug_in_the_batch_path_only(self, monkeypatch):
        """A carry-over bug in access_many must fail the case.

        Sabotage: every ``access_many`` call restarts the interval
        countdown, forgetting the misses counted by the previous call.
        Per-access replay is untouched, so only the batched pass can see
        it; the case's 8 slabs put 7 such restarts into the stream.
        """
        case = DifferentialCase(scheme="prism-h", seed=7, accesses=1500,
                                scheme_kwargs={"seed": 1})
        assert slab_count(case) > 1
        _assert_ok(run_case(case))
        access_many = SharedCache.access_many

        def forgetful(self, trace, collect=False):
            self._interval_left = self._interval_len
            return access_many(self, trace, collect=collect)

        monkeypatch.setattr(SharedCache, "access_many", forgetful)
        result = run_case(case)
        assert result.divergences, "batched pass missed a carry-over bug"
        assert all(d.what.startswith("batched ") for d in result.divergences)
