"""Public-API surface checks: the imports the README promises exist."""

import pytest


class TestTopLevelAPI:
    def test_readme_quickstart_names(self):
        import repro

        for name in ("machine", "run_workload", "PrismScheme", "HitMaxPolicy",
                     "FairnessPolicy", "QOSPolicy", "SharedCache", "CacheGeometry",
                     "MultiCoreSystem", "run_standalone", "get_mix", "get_profile",
                     "derive_eviction_probabilities", "ProbabilisticCacheManager"):
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro
        import repro.cache
        import repro.core
        import repro.core.allocation
        import repro.cpu
        import repro.metrics
        import repro.partitioning
        import repro.workloads

        for module in (repro, repro.cache, repro.core, repro.core.allocation,
                       repro.cpu, repro.metrics, repro.partitioning, repro.workloads):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestWorkloadConstructionAPI:
    """The unified workload-source seam promised by docs/simulator.md."""

    def test_documented_names_exported(self):
        import repro.workloads as workloads

        for name in ("WorkloadSource", "MixSource", "BenchmarkListSource",
                     "resolve_workload", "register_family", "workload_families",
                     "TenantSpec", "TenantWorkload", "get_tenant_workload",
                     "tenant_presets", "TENANT_PRESETS"):
            assert name in workloads.__all__, name
            assert hasattr(workloads, name), name

    def test_resolver_covers_every_reference_kind(self):
        from repro.workloads import (
            BenchmarkListSource,
            MixSource,
            TenantWorkload,
            resolve_workload,
        )

        assert isinstance(resolve_workload("Q7"), MixSource)
        assert isinstance(resolve_workload(["179.art"]), BenchmarkListSource)
        assert isinstance(resolve_workload("tenants:smoke4"), TenantWorkload)

    def test_tenants_family_registered(self):
        from repro.workloads import workload_families

        assert "tenants" in workload_families()

    def test_tenancy_metrics_exported(self):
        import repro.metrics as metrics

        for name in ("TenantSLOReport", "MissRunTracker", "jain_fairness",
                     "slo_attainment", "tenant_hit_rates", "DEFAULT_SLO_FRACTION"):
            assert name in metrics.__all__, name


class TestPolicyRegistry:
    def test_make_policy_known_names(self):
        from repro.cache.replacement import make_policy

        for name in ("lru", "plru", "random", "tslru", "dip", "bip", "lip",
                     "srrip", "brrip", "drrip"):
            policy = make_policy(name)
            assert policy.name in (name, "lip", "bip")  # names match registry keys

    def test_make_policy_kwargs(self):
        from repro.cache.replacement import make_policy

        policy = make_policy("dip", epsilon=1 / 16)
        assert policy.epsilon == 1 / 16

    def test_make_policy_unknown(self):
        from repro.cache.replacement import make_policy

        with pytest.raises(ValueError, match="known"):
            make_policy("clairvoyant")
