"""Batched replay of tenant traces, under the differential oracle.

The multi-tenant key-value family generates its own access streams
(huge strided addresses, rate-interleaved cores) rather than driving the
timing model, and its runner replays them through ``access_many``. So it
gets its own slice of the differential matrix: the engine's batch path
must agree with the reference access for access on a tenant-generated
stream.
"""

import pytest

from repro.check.differential import (
    _NEEDS_PERF,
    _NEEDS_STANDALONE,
    DifferentialCase,
    SyntheticPerf,
    _build_engine,
    compare_batched,
)
from repro.check.reference import build_reference
from repro.util.rng import make_rng
from repro.workloads.tenants import get_tenant_workload


def tenant_stream(requests=1500, seed=7, chunk_size=512):
    """The smoke4 shared trace flattened to the oracle's (core, addr) form."""
    workload = get_tenant_workload("smoke4")
    stream = []
    for cores, addrs in workload.chunks(requests, seed, chunk_size=chunk_size):
        stream.extend(zip(cores.tolist(), addrs.tolist()))
    return stream


def engine_and_reference(case, scheme_kwargs=None):
    """(engine, reference) with run_case's synthetic perf/standalone.

    ``scheme_kwargs`` overrides the reference's scheme arguments (the
    teeth test skews them).
    """
    perf = (
        SyntheticPerf(case.num_cores, case.seed)
        if case.scheme in _NEEDS_PERF
        else None
    )
    standalone = None
    if case.scheme in _NEEDS_STANDALONE:
        rng = make_rng(case.seed, "check-standalone")
        standalone = [0.5 + rng.random() for _ in range(case.num_cores)]
    reference = build_reference(
        case.scheme,
        case.num_cores,
        case.geometry,
        standalone_ipcs=standalone,
        scheme_kwargs=scheme_kwargs or case.scheme_kwargs,
        perf=perf,
    )
    return _build_engine(case, standalone, perf), reference


def prism_case():
    return DifferentialCase(
        scheme="prism-h", num_cores=4, num_sets=16, assoc=4, seed=7,
        accesses=0, scheme_kwargs={"seed": 1},
    )


class TestTenantStreamEquivalence:
    """Batched engine vs per-access reference over the same tenant trace."""

    @pytest.mark.parametrize("scheme", ["lru", "prism-h", "prism-q"])
    def test_batched_engine_agrees_with_reference(self, scheme):
        case = DifferentialCase(
            scheme=scheme, num_cores=4, num_sets=16, assoc=4, seed=7, accesses=0,
            scheme_kwargs={"seed": 1} if scheme.startswith("prism") else None,
        )
        engine, reference = engine_and_reference(case)
        divergences = compare_batched(engine, reference, tenant_stream())
        assert divergences == [], "\n".join(str(d) for d in divergences)

    def test_slab_count_does_not_change_the_verdict(self):
        """Chunk boundaries in the tenant replay must not leak state."""
        stream = tenant_stream()
        for slabs in (1, 7):
            engine, reference = engine_and_reference(prism_case())
            assert compare_batched(engine, reference, stream, slabs=slabs) == []

    def test_oracle_has_teeth_on_tenant_streams(self):
        """Mismatched PriSM draw seeds must diverge on this stream too."""
        engine, reference = engine_and_reference(
            prism_case(), scheme_kwargs={"seed": 2}
        )
        assert compare_batched(engine, reference, tenant_stream())

    def test_stream_exercises_every_tenant(self):
        stream = tenant_stream()
        assert {core for core, _ in stream} == {0, 1, 2, 3}
