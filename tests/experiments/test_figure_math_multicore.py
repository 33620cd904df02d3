"""Canned-data tests for the multi-core-count figures (Fig. 1 and Fig. 2)."""

import pytest

from repro.experiments import fig01_motivation, fig02_summary
from tests.experiments.test_figure_math import fake_result, summarise_with


class TestFig1aMath:
    def test_scalability_rows(self):
        factors_by_cores = {4: 0.8, 8: 0.9, 16: 0.95, 32: 1.0}

        def fake_run(mix, config, scheme, **kwargs):
            factor = factors_by_cores[config.num_cores] if scheme != "lru" else 1.0
            return fake_result(mix, scheme, 2.0 * factor)

        result = summarise_with(fig01_motivation, fake_run, mixes_per_count=2)
        rows = result["scalability"]["rows"]
        assert [r["cores"] for r in rows] == [4, 8, 16, 32]
        # The degradation trend appears exactly as injected.
        assert rows[0]["ucp_antt_vs_lru"] == pytest.approx(0.8)
        assert rows[3]["ucp_antt_vs_lru"] == pytest.approx(1.0)
        # Fairness columns only exist through 16 cores.
        assert "fairness_waypart" in rows[2]
        assert "fairness_waypart" not in rows[3]


class TestFig1bMath:
    def test_fine_grain_panel(self):
        # Throughput rises with associativity for UCP only.
        throughput_by_assoc = {16: 3.0, 32: 3.0, 64: 3.2, 256: 3.3}

        def fake_run(mix, config, scheme, **kwargs):
            r = fake_result(mix, scheme, 1.0)
            thr = throughput_by_assoc[config.geometry.assoc]
            if scheme == "lru":
                thr = 2.8
            return type(r)(**{**r.__dict__, "throughput": thr})

        result = summarise_with(fig01_motivation, fake_run, mixes_per_count=2)
        rows = result["fine_grain"]["rows"]
        assert [r["assoc"] for r in rows] == [16, 64, 256]
        ucp_4c = [r["ucp_throughput_4c"] for r in rows]
        assert ucp_4c == sorted(ucp_4c)  # rises with associativity
        lru_4c = [r["lru_throughput_4c"] for r in rows]
        assert max(lru_4c) - min(lru_4c) < 1e-9  # LRU flat


class TestFig2Math:
    def test_summary_rows(self):
        scheme_factors = {
            "lru": 1.0, "prism-h": 0.85, "ucp": 0.9, "pipp": 0.95,
            "prism-f": 0.9, "fair-waypart": 0.97,
        }

        def fake_run(mix, config, scheme, **kwargs):
            return fake_result(mix, scheme, 2.0 * scheme_factors[scheme])

        result = summarise_with(
            fig02_summary, fake_run, mixes_per_count=2, core_counts=(4, 16, 32)
        )
        rows = {r["cores"]: r for r in result["rows"]}
        assert rows[4]["prism_h_antt_vs_lru"] == pytest.approx(0.85)
        assert rows[16]["prism_f_antt_vs_lru"] == pytest.approx(0.9)
        assert "fairness_prism_f" in rows[16]
        assert "fairness_prism_f" not in rows[32]
        text = fig02_summary.format_result(result)
        assert "PriSM-H/LRU" in text
