"""Tests for the markdown report generator."""

import pytest

from repro.campaign.runner import partition_specs
from repro.experiments.registry import EXPERIMENTS, paper_grid
from repro.experiments.report import BUDGETS, generate_report


class TestBudgets:
    def test_micro_and_quick_cover_registry(self):
        assert set(BUDGETS["micro"]) == set(EXPERIMENTS)
        assert set(BUDGETS["quick"]) == set(EXPERIMENTS)

    def test_full_budget_is_defaults(self):
        assert BUDGETS["full"] == {}


class TestGenerate:
    def test_unknown_budget(self, tmp_path):
        with pytest.raises(ValueError, match="budget"):
            generate_report(tmp_path / "r.md", budget="bogus")

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(KeyError, match="fig99"):
            generate_report(tmp_path / "r.md", budget="micro", only=["fig99"])

    def test_single_experiment_report(self, tmp_path):
        path = generate_report(tmp_path / "r.md", budget="micro", only=["fig12"])
        text = path.read_text()
        assert "# PriSM reproduction report" in text
        assert "## fig12" in text
        assert "**Paper:**" in text
        assert "Figure 12" in text

    def test_progress_callback(self, tmp_path):
        seen = []
        generate_report(
            tmp_path / "r.md", budget="micro", only=["sec56"], progress=seen.append
        )
        assert any("sec56" in msg for msg in seen)

    def test_module_cli(self, tmp_path, capsys):
        from repro.experiments.report import main

        out = tmp_path / "cli.md"
        assert main(["-o", str(out), "--budget", "micro", "--only", "fig13",
                     "--quiet"]) == 0
        assert out.exists()
        assert "fig13" in out.read_text()

    def test_store_serves_second_report(self, tmp_path):
        """The pooled runs persist into the store; a second report of the
        same figures simulates nothing."""
        store = tmp_path / "store"
        first = generate_report(
            tmp_path / "a.md", budget="micro", only=["fig4", "fig3"],
            jobs=2, store=store,
        )
        seen = []
        second = generate_report(
            tmp_path / "b.md", budget="micro", only=["fig4", "fig3"],
            progress=seen.append, store=store,
        )
        cached = [msg for msg in seen if msg.startswith("store: ")]
        assert cached and all(
            msg.split()[1].split("/")[0] == msg.split()[1].split("/")[1]
            for msg in cached
        ), cached
        untimed = [
            [line for line in path.read_text().splitlines() if not line.startswith("*(")]
            for path in (first, second)
        ]
        assert untimed[0] == untimed[1]


class TestPaperGrid:
    def test_quick_union_runs_each_fingerprint_once(self):
        """Figures share runs (fig2 holds fig1(a)'s grid, fig4's telemetry
        runs serve fig3's plain twins, ...): the quick grid lists 290 runs
        and 219 distinct fingerprints."""
        grid = paper_grid(list(EXPERIMENTS), BUDGETS["quick"])
        total = sum(len(specs) for specs in grid.values())
        unique = sum(
            len(partition_specs(None, specs, config)[2])
            for config, specs in grid.items()
        )
        assert (total, unique) == (290, 219)

    def test_grouped_by_machine(self):
        grid = paper_grid(["fig6", "fig5"], BUDGETS["micro"])
        assert [(c.num_cores, c.geometry.assoc) for c in grid] == [(16, 16), (16, 32)]
        assert [len(specs) for specs in grid.values()] == [2, 3]

    def test_headroom_declares_no_runs(self):
        assert paper_grid(["headroom"], BUDGETS["micro"]) == {}
