"""One execution path per spec: every route runs, serialises and stores a
``RunSpec`` with all of its fields, clustering included."""

import json
import multiprocessing
from dataclasses import MISSING, fields, replace

import pytest

import repro.experiments.parallel as parallel_module
from repro.campaign import Campaign, CampaignRunner, spec_fingerprint
from repro.campaign.runner import partition_specs
from repro.campaign.store import (
    machine_to_dict,
    result_from_dict,
    spec_from_dict,
    spec_to_dict,
)
from repro.experiments.configs import machine
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.runner import run_workload
from repro.herd.worker import _run_entry

SCALE16 = machine(16)
REQUESTS = 20_000
CLUSTERED = RunSpec(
    mix="shared:scale16", scheme="prism-h", instructions=REQUESTS, clusters=4
)


@pytest.fixture(scope="module")
def clustered_result():
    return run_workload(
        "shared:scale16", SCALE16, "prism-h", instructions=REQUESTS, clusters=4
    )


@pytest.fixture(scope="module")
def unclustered_result():
    return run_workload("shared:scale16", SCALE16, "prism-h", instructions=REQUESTS)


class TestSpecSerialisation:
    #: A value away from the default for every RunSpec field.
    VALUES = dict(
        mix=("179.art", "181.mcf", "403.gcc", "401.bzip2"),
        scheme="prism-f",
        seed=7,
        instructions=12_345,
        scheme_kwargs={"probability_bits": 6},
        telemetry=True,
        check=True,
        clusters=2,
    )

    def test_values_cover_every_field_off_default(self):
        assert set(self.VALUES) == {f.name for f in fields(RunSpec)}
        for f in fields(RunSpec):
            if f.default is not MISSING:
                assert self.VALUES[f.name] != f.default, f.name

    def test_every_field_round_trips_through_json(self):
        spec = RunSpec(**self.VALUES)
        data = json.loads(json.dumps(spec_to_dict(spec)))
        assert spec_from_dict(data) == spec

    def test_legacy_record_without_clusters_loads(self):
        legacy = {
            "mix": "Q1",
            "scheme": "lru",
            "seed": 0,
            "instructions": None,
            "scheme_kwargs": None,
            "telemetry": False,
            "check": False,
        }
        assert spec_from_dict(legacy) == RunSpec(mix="Q1", scheme="lru")


class TestClusteredSpecRoutes:
    """Every route returns the clustered run, not the per-core one."""

    def test_results_differ(self, clustered_result, unclustered_result):
        assert clustered_result != unclustered_result

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_runner(self, tmp_path, jobs, clustered_result):
        run = CampaignRunner(tmp_path / "s", SCALE16, jobs=jobs).run([CLUSTERED])
        assert run.executed == 1
        assert run.results == [clustered_result]

    def test_herd_worker_entry(self, clustered_result):
        entry = {
            "fingerprint": spec_fingerprint(CLUSTERED, SCALE16),
            "spec": spec_to_dict(CLUSTERED),
        }
        record = _run_entry(entry, machine_to_dict(SCALE16), retries=0)
        assert record["record"] == "result"
        assert spec_from_dict(record["spec"]) == CLUSTERED
        assert result_from_dict(record["result"]) == clustered_result

    def test_run_specs(self, clustered_result):
        assert run_specs([CLUSTERED], SCALE16, jobs=1) == [clustered_result]

    def test_campaign_manifest_keeps_clustered_fingerprints(self, tmp_path):
        plain = RunSpec(mix="shared:scale16", scheme="prism-h", instructions=REQUESTS)
        camp = Campaign(tmp_path / "s", SCALE16, [CLUSTERED, plain])
        camp.save()
        loaded = Campaign.load(tmp_path / "s")
        assert loaded.specs == camp.specs
        assert loaded.fingerprints() == camp.fingerprints()
        assert len(set(loaded.fingerprints())) == 2


class TestRunSpecsForwarding:
    @pytest.mark.parametrize(
        "jobs",
        [
            1,
            pytest.param(
                2,
                marks=pytest.mark.skipif(
                    "fork" not in multiprocessing.get_all_start_methods(),
                    reason="pool workers see the patch only when forked",
                ),
            ),
        ],
    )
    def test_check_flag_reaches_run_workload(self, monkeypatch, jobs):
        def fake_run_workload(mix, config, scheme, **kwargs):
            return (scheme, kwargs.get("check", False))

        monkeypatch.setattr(parallel_module, "run_workload", fake_run_workload)
        specs = [
            RunSpec(mix="Q1", scheme="lru", check=True),
            RunSpec(mix="Q1", scheme="dip", check=False),
        ]
        assert run_specs(specs, machine(4), jobs=jobs) == [("lru", True), ("dip", False)]


class TestPartition:
    def test_duplicate_telemetry_request_is_served(self, tmp_path):
        """Duplicates differing only in telemetry run once, traced."""
        config = machine(4, instructions=3_000)
        plain = RunSpec(mix="Q1", scheme="prism-h")
        traced = RunSpec(mix="Q1", scheme="prism-h", telemetry=True)
        run = CampaignRunner(tmp_path / "s", config, jobs=1).run([plain, traced])
        assert run.executed == 1
        assert all(result.telemetry is not None for result in run.results)

    def test_duplicates_merge_the_unfingerprinted_flags(self):
        """Without a store too: one run per fingerprint, asking for every
        trace and invariant audit any duplicate asks for."""
        plain = RunSpec(mix="Q1", scheme="prism-h")
        specs = [plain, replace(plain, check=True), replace(plain, telemetry=True)]
        fingerprints, cached, pending = partition_specs(None, specs, machine(4))
        assert len(set(fingerprints)) == 1 and cached == {}
        assert list(pending.values()) == [replace(plain, telemetry=True, check=True)]
