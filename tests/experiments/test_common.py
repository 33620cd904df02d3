"""Tests for the experiment helpers (tables, ratios, budgets)."""

import pytest

from repro.experiments.common import (
    compare_schemes,
    format_table,
    geomean_ratio,
    resolve_instructions,
)
from repro.experiments.configs import machine


class TestFormatTable:
    def test_headers_and_separator(self):
        text = format_table(["a", "b"], [[1, 2.5]])
        lines = text.splitlines()
        assert len(lines) == 3
        assert "a" in lines[0] and "b" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456]])
        assert "0.1235" in text

    def test_int_and_str_cells(self):
        text = format_table(["x", "y"], [[42, "Q7"]])
        assert "42" in text and "Q7" in text

    def test_width(self):
        text = format_table(["x"], [[1]], width=20)
        assert len(text.splitlines()[0]) == 20


class TestResolveInstructions:
    def test_none_passthrough(self):
        assert resolve_instructions(None, 4) is None

    def test_int_passthrough(self):
        assert resolve_instructions(100, 16) == 100

    def test_dict_lookup(self):
        assert resolve_instructions({4: 10, 16: 20}, 16) == 20

    def test_dict_missing_core_count(self):
        assert resolve_instructions({4: 10}, 32) is None


class TestCompareSchemes:
    def test_structure_and_ratio(self):
        config = machine(4, instructions=20_000)
        results = compare_schemes(["Q1"], config, ["lru", "prism-h"])
        assert set(results) == {"Q1"}
        assert set(results["Q1"]) == {"lru", "prism-h"}
        ratio = geomean_ratio(results, "prism-h", "lru")
        assert ratio == pytest.approx(
            results["Q1"]["prism-h"].antt / results["Q1"]["lru"].antt
        )

    def test_progress_callback(self):
        config = machine(4, instructions=5_000)
        seen = []
        compare_schemes(["Q1"], config, ["lru"], progress=seen.append)
        assert seen == ["Q1 / lru / seed 0"]
