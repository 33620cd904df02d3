"""Tests for the parallel experiment executor.

The load-bearing property is *bit-identical determinism*: a parallel run
must be indistinguishable from the serial loop it replaces, whatever the
worker count or completion order. ``WorkloadResult`` and ``CoreResult``
are plain dataclasses of primitives, so ``==`` compares every reported
figure exactly (no tolerances).
"""

import os

import pytest

from repro.experiments.common import compare_schemes
from repro.experiments.configs import machine
from repro.experiments.multi_seed import run_seeds
from repro.experiments.parallel import (
    JOBS_ENV,
    RunSpec,
    SpecRunError,
    resolve_jobs,
    run_specs,
)
from repro.experiments.runner import DEFAULT_STANDALONE_CACHE, run_workload

CONFIG = machine(4, instructions=3_000)
INSTR = 3_000


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch):
    """Isolate the memoised stand-alone IPCs and the jobs environment."""
    monkeypatch.delenv(JOBS_ENV, raising=False)
    DEFAULT_STANDALONE_CACHE.clear()
    yield
    DEFAULT_STANDALONE_CACHE.clear()


class TestResolveJobs:
    def test_default_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_explicit_value(self):
        assert resolve_jobs(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(2) == 2

    def test_invalid_env_is_serial(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) >= 1

    def test_resolution_matrix(self, monkeypatch):
        """The full None/garbage/0/negative matrix, explicit and via env.

        Documented semantics: ``None`` consults ``REPRO_JOBS`` (unset or
        invalid means serial); any value ``<= 0`` — explicit or from the
        environment — means all cores.
        """
        all_cpus = os.cpu_count() or 1
        # explicit argument
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == all_cpus
        assert resolve_jobs(-1) == all_cpus
        assert resolve_jobs(-128) == all_cpus
        assert resolve_jobs(3) == 3
        # environment variable (jobs=None)
        for env_value, expected in [
            ("garbage", 1),
            ("", 1),
            ("1.5", 1),
            ("0", all_cpus),
            ("-1", all_cpus),
            ("-128", all_cpus),
            ("4", 4),
        ]:
            monkeypatch.setenv(JOBS_ENV, env_value)
            assert resolve_jobs(None) == expected, f"REPRO_JOBS={env_value!r}"
        # an explicit value always beats the environment
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == all_cpus


class TestSpecRunError:
    """Worker failures must name the spec that died (satellite fix)."""

    GOOD = RunSpec(mix="Q1", scheme="lru", instructions=INSTR)
    BAD = RunSpec(mix="Q2", scheme="no-such-scheme", instructions=INSTR)

    def test_serial_failure_wrapped_with_spec_context(self):
        with pytest.raises(SpecRunError) as excinfo:
            run_specs([self.GOOD, self.BAD], CONFIG, jobs=1)
        error = excinfo.value
        assert error.spec == self.BAD
        assert error.index == 1
        assert error.error_type == "KeyError"
        assert self.BAD.describe() in str(error)
        assert "no-such-scheme" in str(error)
        # The original exception is chained on the serial path.
        assert isinstance(error.__cause__, KeyError)

    def test_pool_failure_wrapped_with_spec_context(self):
        with pytest.raises(SpecRunError) as excinfo:
            run_specs([self.GOOD, self.BAD, self.GOOD], CONFIG, jobs=2)
        error = excinfo.value
        assert error.spec == self.BAD
        assert error.index == 1
        assert self.BAD.describe() in str(error)
        # The worker's formatted traceback crosses the process boundary.
        assert "KeyError" in error.worker_traceback
        assert "no-such-scheme" in error.worker_traceback


class TestRunSpecs:
    def test_serial_matches_run_workload(self):
        spec = RunSpec(mix="Q1", scheme="lru", instructions=INSTR)
        [result] = run_specs([spec], CONFIG, jobs=1)
        expected = run_workload("Q1", CONFIG, "lru", instructions=INSTR)
        assert result == expected

    def test_results_in_spec_order(self):
        specs = [
            RunSpec(mix="Q1", scheme="lru", instructions=INSTR),
            RunSpec(mix="Q2", scheme="lru", instructions=INSTR),
            RunSpec(mix="Q1", scheme="prism-h", instructions=INSTR),
        ]
        results = run_specs(specs, CONFIG, jobs=2)
        assert [r.mix for r in results] == ["Q1", "Q2", "Q1"]
        assert [r.scheme for r in results] == ["lru", "lru", "prism-h"]

    def test_empty_specs(self):
        assert run_specs([], CONFIG, jobs=2) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicates_simulate_once(self, monkeypatch, jobs):
        """Without a store, each fingerprint still runs once, and a
        telemetry request serves its plain twin."""
        plain = RunSpec(mix="Q1", scheme="lru", instructions=INSTR)
        traced = RunSpec(mix="Q1", scheme="lru", instructions=INSTR, telemetry=True)
        other = RunSpec(mix="Q2", scheme="lru", instructions=INSTR)
        messages = []
        results = run_specs(
            [plain, other, traced, plain], CONFIG, jobs=jobs,
            progress=messages.append,
        )
        assert len(messages) == 2  # one line per executed run
        assert results[0] is results[2] is results[3]
        assert results[0].telemetry is not None
        assert results[1].mix == "Q2"

    def test_failure_names_first_index_of_its_fingerprint(self):
        bad = RunSpec(mix="Q2", scheme="no-such-scheme", instructions=INSTR)
        good = RunSpec(mix="Q1", scheme="lru", instructions=INSTR)
        with pytest.raises(SpecRunError) as excinfo:
            run_specs([good, good, bad, bad], CONFIG, jobs=1)
        assert excinfo.value.index == 2

    def test_progress_called_per_run(self):
        messages = []
        specs = [
            RunSpec(mix="Q1", scheme="lru", instructions=INSTR),
            RunSpec(mix="Q1", scheme="dip", instructions=INSTR),
        ]
        run_specs(specs, CONFIG, jobs=1, progress=messages.append)
        assert len(messages) == 2
        assert "Q1" in messages[0] and "lru" in messages[0]


class TestParallelIdenticalToSerial:
    """The acceptance property: pool results == serial results, exactly."""

    MIXES = ["Q1", "Q2"]
    SCHEMES = ["lru", "prism-h"]

    def test_compare_schemes_bit_identical(self):
        serial = compare_schemes(
            self.MIXES, CONFIG, self.SCHEMES, instructions=INSTR, jobs=1
        )
        DEFAULT_STANDALONE_CACHE.clear()
        parallel = compare_schemes(
            self.MIXES, CONFIG, self.SCHEMES, instructions=INSTR, jobs=2
        )
        assert set(serial) == set(parallel)
        for mix in serial:
            for scheme in serial[mix]:
                # Dataclass equality: every metric, per-core counter and
                # extra diagnostic must match exactly.
                assert serial[mix][scheme] == parallel[mix][scheme]

    def test_compare_schemes_env_opt_in(self, monkeypatch):
        serial = compare_schemes(["Q1"], CONFIG, ["lru"], instructions=INSTR)
        DEFAULT_STANDALONE_CACHE.clear()
        monkeypatch.setenv(JOBS_ENV, "2")
        parallel = compare_schemes(["Q1"], CONFIG, ["lru"], instructions=INSTR)
        assert serial["Q1"]["lru"] == parallel["Q1"]["lru"]

    def test_parallel_compare_schemes_shape(self):
        results = compare_schemes(
            ["Q1"], CONFIG, ["lru", "dip"], instructions=INSTR, jobs=2
        )
        assert list(results) == ["Q1"]
        assert list(results["Q1"]) == ["lru", "dip"]

    def test_telemetry_traces_bit_identical(self, tmp_path):
        """A --jobs trace must be byte-identical to the serial trace."""
        specs = [
            RunSpec(mix=mix, scheme=scheme, instructions=INSTR, telemetry=True)
            for mix in self.MIXES
            for scheme in self.SCHEMES
        ]
        serial = run_specs(specs, CONFIG, jobs=1)
        DEFAULT_STANDALONE_CACHE.clear()
        parallel = run_specs(specs, CONFIG, jobs=2)
        for i, (a, b) in enumerate(zip(serial, parallel)):
            # RunTelemetry equality covers every sample; timing is excluded.
            assert a.telemetry == b.telemetry, specs[i]
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial[0].telemetry.write(serial_path)
        parallel[0].telemetry.write(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_run_seeds_bit_identical(self):
        serial = run_seeds("Q1", CONFIG, "prism-h", seeds=(0, 1), instructions=INSTR)
        DEFAULT_STANDALONE_CACHE.clear()
        parallel = run_seeds(
            "Q1", CONFIG, "prism-h", seeds=(0, 1), instructions=INSTR, jobs=2
        )
        assert serial.results == parallel.results
        assert serial.metrics == parallel.metrics
