"""Registry checks plus a micro-scale smoke run of every experiment."""

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import BUDGETS
from tests.golden.test_figure_digests import micro_summaries


class TestRegistry:
    def test_all_seventeen_experiments_registered(self):
        assert len(EXPERIMENTS) == 17
        for fig in range(1, 14):
            assert f"fig{fig}" in EXPERIMENTS
        assert "sec56" in EXPERIMENTS
        assert "tenants" in EXPERIMENTS
        assert "headroom" in EXPERIMENTS
        assert "scaleout" in EXPERIMENTS

    def test_lookup(self):
        assert get_experiment("fig7").title.startswith("PriSM vs Vantage")

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="known"):
            get_experiment("fig99")

    def test_micro_budgets_cover_registry(self):
        assert set(BUDGETS["micro"]) == set(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_smoke(experiment_id):
    """Every experiment runs at micro scale and formats to a non-trivial
    paper-style table (the summaries the golden digests pin)."""
    experiment = EXPERIMENTS[experiment_id]
    result = micro_summaries()[experiment_id]
    assert result["id"].startswith(experiment_id[:4]) or result["id"] == experiment_id
    text = experiment.format(result)
    assert len(text.splitlines()) >= 3
    assert any(ch.isdigit() for ch in text)
