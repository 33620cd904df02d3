"""Tests for RunOptions and Experiment.run."""

import os
import warnings

import pytest

from repro.experiments import options as options_module
from repro.experiments import parallel, registry
from repro.experiments.configs import machine
from repro.experiments.options import RunOptions, resolve_run_options
from repro.experiments.parallel import RunSpec
from repro.experiments.registry import Experiment

CONFIG = machine(4)


def test_jobs_env_name_in_sync_with_parallel_executor():
    assert options_module.JOBS_ENV == parallel.JOBS_ENV


class TestResolveRunOptions:
    def test_none_becomes_defaults(self):
        assert resolve_run_options(None, {}) == RunOptions()

    def test_run_control_kwargs_rejected(self):
        with pytest.raises(TypeError, match="instructions, seed"):
            resolve_run_options(RunOptions(seed=1), {"instructions": 500, "seed": 9})

    def test_no_legacy_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_run_options(RunOptions(), {})


class TestExperimentRunDecorator:
    """``Experiment.run``: the uniform ``run(options=None, **figure_kwargs)``
    API of every registry experiment."""

    @pytest.fixture(autouse=True)
    def fake_run_specs(self, monkeypatch):
        """Record run_specs' controls; each result is its spec."""
        self.calls = []

        def run_specs(specs, config, jobs=None, progress=None, store=None):
            self.calls.append({"jobs": jobs, "store": store, "progress": progress})
            return list(specs)

        monkeypatch.setattr(registry, "run_specs", run_specs)

    @staticmethod
    def make_experiment():
        def specs(instructions=None, mixes=None, seed=0):
            return [
                (CONFIG, RunSpec(mix=mix, instructions=instructions, seed=seed))
                for mix in mixes or ["Q1"]
            ]

        def summarise(results, instructions=None, mixes=None, seed=0):
            return {
                "instructions": instructions,
                "mixes": mixes,
                "seed": seed,
                "results": results,
            }

        return Experiment("fake", "a fake experiment", specs, summarise, str)

    def test_options_forwarded(self):
        run = self.make_experiment().run
        result = run(options=RunOptions(instructions=123, seed=7), mixes=["Q1"])
        assert result["instructions"] == 123
        assert result["seed"] == 7
        assert result["mixes"] == ["Q1"]
        assert result["results"] == [RunSpec(mix="Q1", instructions=123, seed=7)]

    def test_defaults_without_options(self):
        result = self.make_experiment().run()
        assert result["instructions"] is None
        assert result["seed"] == 0

    @pytest.mark.parametrize(
        "control", ["instructions", "seed", "progress", "jobs", "telemetry"]
    )
    def test_bare_control_rejected(self, control):
        """A bare run control would be overwritten by ``options``: refuse it."""
        run = self.make_experiment().run
        with pytest.raises(TypeError, match=f"{control}.*RunOptions"):
            run(**{control: 55})

    def test_positional_instructions_rejected(self):
        with pytest.raises(TypeError, match="RunOptions, not int"):
            self.make_experiment().run(1000)

    def test_jobs_store_progress_passed_to_run_specs(self, monkeypatch):
        monkeypatch.delenv(options_module.JOBS_ENV, raising=False)
        self.make_experiment().run(
            options=RunOptions(jobs=3, store="out/s", progress=print)
        )
        assert self.calls == [{"jobs": 3, "store": "out/s", "progress": print}]
        assert options_module.JOBS_ENV not in os.environ

    def test_figure_kwargs_unrelated_to_controls_pass_through(self):
        result = self.make_experiment().run(mixes=["Q2", "Q3"])
        assert [spec.mix for spec in result["results"]] == ["Q2", "Q3"]

    def test_unknown_figure_kwarg_rejected(self):
        with pytest.raises(TypeError, match="bit_widths"):
            self.make_experiment().run(bit_widths=(4,))
