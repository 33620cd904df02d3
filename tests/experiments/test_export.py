"""Tests for the CSV exporter."""

import csv

import pytest

from repro.experiments.export import collect_tables, export_csv, rows_to_csv


class TestCollectTables:
    def test_top_level_rows(self):
        result = {"id": "fig9", "rows": [{"mix": "S1", "lru": 0.4}]}
        tables = collect_tables(result)
        assert set(tables) == {"fig9"}

    def test_nested_panels(self):
        result = {
            "id": "fig3",
            "quad": {"rows": [{"mix": "Q1"}], "geomean": {}},
            "thirtytwo": {"rows": [{"mix": "T1"}]},
        }
        tables = collect_tables(result)
        assert set(tables) == {"fig3_quad", "fig3_thirtytwo"}

    def test_ignores_non_tables(self):
        result = {"id": "x", "rows": [], "geomean": {"a": 1.0}, "count": 3}
        assert collect_tables(result) == {}


class TestWrite:
    def test_roundtrip(self, tmp_path):
        rows = [{"mix": "Q1", "value": 0.5}, {"mix": "Q2", "value": 0.7, "extra": 1}]
        path = rows_to_csv(rows, tmp_path / "t.csv")
        with open(path) as handle:
            read = list(csv.DictReader(handle))
        assert read[0]["mix"] == "Q1"
        assert read[1]["extra"] == "1"
        assert read[0]["extra"] == ""  # union header, missing cell empty

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            rows_to_csv([], tmp_path / "t.csv")

    def test_export_csv_end_to_end(self, tmp_path):
        from repro.experiments.options import RunOptions
        from repro.experiments.registry import get_experiment

        result = get_experiment("fig13").run(
            options=RunOptions(instructions=15_000),
            mixes=["Q1"], interval_multipliers=(1.0,),
        )
        paths = export_csv(result, tmp_path / "fig13")
        assert len(paths) == 1
        assert paths[0].exists()
        with open(paths[0]) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["mix"] == "Q1"
