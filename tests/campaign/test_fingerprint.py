"""Fingerprint stability and canonicalisation guarantees.

The fingerprint is a *content address*: stores written today must still be
readable by tomorrow's checkout, so the digest for a reference spec is
pinned here byte for byte. If this test fails, either restore the
canonicalisation rules or bump ``FINGERPRINT_VERSION`` (never let old and
new rules share a version).
"""

from repro.campaign.fingerprint import (
    FINGERPRINT_VERSION,
    canonical_payload,
    spec_fingerprint,
)
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec
from repro.workloads.tenants import TenantSpec, TenantWorkload, get_tenant_workload

CONFIG = machine(4, instructions=3_000)

#: The reference digest for (Q1, prism-h, seed 3, kwargs, the machine
#: above) under FINGERPRINT_VERSION 3 (v2 digests were invalidated when
#: the payload grew the ``clusters`` field for cluster-granular
#: management). Pinned: a silent change here would orphan every existing
#: store.
REFERENCE_SPEC = RunSpec(
    mix="Q1", scheme="prism-h", seed=3, scheme_kwargs={"probability_bits": 6}
)
REFERENCE_DIGEST = "16ef8ea4e80dcbd9f652d87f9c2b1af226beef3c86b17de3c322fdbac5322e56"


class TestStability:
    def test_reference_digest_is_pinned(self):
        assert FINGERPRINT_VERSION == 3
        assert spec_fingerprint(REFERENCE_SPEC, CONFIG) == REFERENCE_DIGEST

    def test_deterministic_across_calls(self):
        spec = RunSpec(mix="Q7", scheme="lru", seed=1)
        assert spec_fingerprint(spec, CONFIG) == spec_fingerprint(spec, CONFIG)

    def test_payload_is_versioned(self):
        assert canonical_payload(REFERENCE_SPEC, CONFIG)["version"] == FINGERPRINT_VERSION


class TestCanonicalisation:
    def test_default_instructions_fold_into_effective(self):
        """spec(None) and spec(config default) are the same run -> same key."""
        implicit = RunSpec(mix="Q1", scheme="lru")
        explicit = RunSpec(mix="Q1", scheme="lru", instructions=CONFIG.instructions)
        assert spec_fingerprint(implicit, CONFIG) == spec_fingerprint(explicit, CONFIG)

    def test_scheme_kwargs_order_irrelevant(self):
        a = RunSpec(mix="Q1", scheme="prism-h",
                    scheme_kwargs={"probability_bits": 6, "sample_shift": 2})
        b = RunSpec(mix="Q1", scheme="prism-h",
                    scheme_kwargs={"sample_shift": 2, "probability_bits": 6})
        assert spec_fingerprint(a, CONFIG) == spec_fingerprint(b, CONFIG)

    def test_empty_kwargs_equal_none(self):
        a = RunSpec(mix="Q1", scheme="lru", scheme_kwargs=None)
        b = RunSpec(mix="Q1", scheme="lru", scheme_kwargs={})
        assert spec_fingerprint(a, CONFIG) == spec_fingerprint(b, CONFIG)

    def test_mix_sequence_kinds_equal(self):
        """A list or tuple of benchmark names canonicalises identically."""
        names = ["179.art", "181.mcf", "179.art", "181.mcf"]
        assert spec_fingerprint(RunSpec(mix=tuple(names)), CONFIG) == spec_fingerprint(
            RunSpec(mix=list(names)), CONFIG
        )

    def test_telemetry_flag_excluded(self):
        """Recording a trace observes a run; it does not change it."""
        a = RunSpec(mix="Q1", scheme="lru", telemetry=False)
        b = RunSpec(mix="Q1", scheme="lru", telemetry=True)
        assert spec_fingerprint(a, CONFIG) == spec_fingerprint(b, CONFIG)


class TestWorkloadSourceIdentity:
    """Fingerprints for registry-resolved workload sources.

    The tenant digest is pinned exactly like the classic reference above:
    changing trace generation without bumping TENANT_FAMILY_VERSION (or
    the fingerprint canonicalisation without bumping FINGERPRINT_VERSION)
    must fail here before it silently orphans a store.
    """

    TENANT_SPEC = RunSpec(mix="tenants:smoke4", scheme="prism-h", seed=3)
    TENANT_DIGEST = (
        "76262ebfdbf4a7ecb5a9c7d44a17da8a66b15d2f0a27ad74650d71c884612b83"
    )

    def test_tenant_digest_is_pinned(self):
        assert spec_fingerprint(self.TENANT_SPEC, CONFIG) == self.TENANT_DIGEST

    def test_reference_string_and_source_object_hash_identically(self):
        """"tenants:smoke4" and the built TenantWorkload are the same run."""
        via_object = RunSpec(
            mix=get_tenant_workload("smoke4"), scheme="prism-h", seed=3
        )
        assert spec_fingerprint(via_object, CONFIG) == self.TENANT_DIGEST

    def test_payload_embeds_the_full_identity(self):
        payload = canonical_payload(self.TENANT_SPEC, CONFIG)
        assert payload["mix"]["kind"] == "tenants"
        assert [t["name"] for t in payload["mix"]["tenants"]] == [
            "alpha", "bravo", "sweeper", "shifty",
        ]

    def test_tenant_parameters_move_the_digest(self):
        base = TenantWorkload("w", [TenantSpec("a", keys=100)])
        tweaked = TenantWorkload("w", [TenantSpec("a", keys=101)])
        a = spec_fingerprint(RunSpec(mix=base, scheme="lru"), CONFIG)
        b = spec_fingerprint(RunSpec(mix=tweaked, scheme="lru"), CONFIG)
        assert a != b

    def test_plain_mix_digest_unmoved_by_the_resolver(self):
        """Promoting the resolver must not re-key existing stores: the
        pinned reference digest (plain "Q1" string) is asserted
        byte-for-byte in TestStability, and MixSource identity stays that
        same string."""
        via_string = spec_fingerprint(REFERENCE_SPEC, CONFIG)
        assert via_string == REFERENCE_DIGEST
        assert canonical_payload(REFERENCE_SPEC, CONFIG)["mix"] == "Q1"


class TestSensitivity:
    """Everything the outcome depends on must move the digest."""

    BASE = RunSpec(mix="Q1", scheme="lru", seed=0)

    def _base(self):
        return spec_fingerprint(self.BASE, CONFIG)

    def test_mix(self):
        assert spec_fingerprint(RunSpec(mix="Q2", scheme="lru"), CONFIG) != self._base()

    def test_scheme(self):
        assert spec_fingerprint(RunSpec(mix="Q1", scheme="dip"), CONFIG) != self._base()

    def test_seed(self):
        assert spec_fingerprint(RunSpec(mix="Q1", scheme="lru", seed=1), CONFIG) != self._base()

    def test_instructions(self):
        spec = RunSpec(mix="Q1", scheme="lru", instructions=5_000)
        assert spec_fingerprint(spec, CONFIG) != self._base()

    def test_scheme_kwargs(self):
        spec = RunSpec(mix="Q1", scheme="lru", scheme_kwargs={"interval_len": 512})
        assert spec_fingerprint(spec, CONFIG) != self._base()

    def test_machine_geometry(self):
        other = machine(4, instructions=3_000, assoc=8)
        assert spec_fingerprint(self.BASE, other) != self._base()

    def test_machine_core_count(self):
        other = machine(8, instructions=3_000)
        assert spec_fingerprint(self.BASE, other) != self._base()

    def test_machine_l1_hierarchy(self):
        inclusive = machine(4, instructions=3_000, l1="inclusive")
        non_inclusive = machine(4, instructions=3_000, l1="non-inclusive")
        assert spec_fingerprint(self.BASE, inclusive) != self._base()
        assert spec_fingerprint(self.BASE, inclusive) != spec_fingerprint(
            self.BASE, non_inclusive
        )

    def test_machine_dram_banks(self):
        other = machine(4, instructions=3_000, dram_banks=4, dram_row_blocks=8)
        assert spec_fingerprint(self.BASE, other) != self._base()

    def test_clusters(self):
        """Cluster-granular management changes results -> must key the store."""
        spec = RunSpec(mix="Q1", scheme="lru", clusters=2)
        assert spec_fingerprint(spec, CONFIG) != self._base()
        assert canonical_payload(spec, CONFIG)["clusters"] == 2

    def test_clusters_none_is_the_per_core_default(self):
        explicit = RunSpec(mix="Q1", scheme="lru", clusters=None)
        assert spec_fingerprint(explicit, CONFIG) == self._base()
