"""Deterministic unit tests for the figure modules' aggregation math.

The smoke tests run the real simulator; these instead feed canned
WorkloadResults through each figure's ``summarise`` so normalisation,
geomeans and achievement counting are checked exactly.
"""

import pytest

from repro.cpu.system import CoreResult
from repro.experiments import (
    fig03_percore,
    fig04_occupancy,
    fig05_vs_waypart,
    fig06_cores_eq_ways,
    fig07_vantage,
    fig08_vantage_misses,
    fig09_fairness,
    fig10_qos,
    fig11_evprob,
    fig12_kbit,
    fig13_victim_notfound,
)
from repro.experiments.runner import WorkloadResult
from repro.metrics import geomean
from repro.telemetry import FinishSample, IntervalSample, RunTelemetry


def fake_telemetry(benchmarks, occupancy):
    """A RunTelemetry holding only finish samples (what fig4 reads)."""
    trace = RunTelemetry(num_cores=len(benchmarks), benchmarks=list(benchmarks))
    for core, name in enumerate(benchmarks):
        trace.finishes.append(
            FinishSample(
                core=core, benchmark=name, instructions=1000, cycles=1000.0,
                occupancy=occupancy,
            )
        )
    return trace


def summarise_with(module, fake_run, **kwargs):
    """``module``'s summary with ``fake_run(mix, config, scheme,
    scheme_kwargs=...)`` standing in for every run its ``specs`` declare."""
    results = [
        fake_run(spec.mix, config, spec.scheme, scheme_kwargs=spec.scheme_kwargs)
        for config, spec in module.specs(**kwargs)
    ]
    return module.summarise(results, **kwargs)


def from_canned(canned):
    """A fake run answering from ``canned[mix][scheme]``."""
    return lambda mix, config, scheme, **kwargs: canned[mix][scheme]


def fake_result(mix, scheme, antt, benchmarks=None, slowdown0=0.8, misses=100):
    benchmarks = benchmarks or ["a", "b", "c", "d"]
    cores = [
        CoreResult(
            name=name,
            ipc=slowdown0 if i == 0 else 1.0,
            cpi=1.0,
            llc_stall_cpi=0.1,
            instructions=1000,
            cycles=1000.0,
            hits=100,
            misses=misses,
            occupancy_at_finish=1.0 / len(benchmarks),
        )
        for i, name in enumerate(benchmarks)
    ]
    return WorkloadResult(
        mix=mix,
        scheme=scheme,
        benchmarks=benchmarks,
        cores=cores,
        standalone=[1.0] * len(benchmarks),
        antt=antt,
        fairness=0.5,
        throughput=2.0,
        weighted_speedup=2.0,
        intervals=10,
        telemetry=fake_telemetry(benchmarks, 1.0 / len(benchmarks)),
    )


class TestFig3Math(object):
    def test_normalisation_and_geomean(self):
        canned = {
            "Q1": {"lru": fake_result("Q1", "lru", 2.0),
                   "prism-h": fake_result("Q1", "prism-h", 1.0),
                   "ucp": fake_result("Q1", "ucp", 1.5),
                   "pipp": fake_result("Q1", "pipp", 2.0)},
            "Q2": {"lru": fake_result("Q2", "lru", 4.0),
                   "prism-h": fake_result("Q2", "prism-h", 2.0),
                   "ucp": fake_result("Q2", "ucp", 3.0),
                   "pipp": fake_result("Q2", "pipp", 4.0)},
        }
        result = summarise_with(
            fig03_percore, from_canned(canned), quad_mixes=["Q1", "Q2"],
            big_mixes=["Q2"],
        )
        panel = result["quad"]
        assert panel["rows"][0]["prism_h"] == pytest.approx(0.5)
        assert panel["rows"][0]["ucp"] == pytest.approx(0.75)
        assert panel["geomean"]["prism_h"] == pytest.approx(0.5)
        assert panel["geomean"]["pipp"] == pytest.approx(1.0)


class TestFig5Math:
    def test_rows_and_geomean(self):
        canned = {
            "S1": {"lru": fake_result("S1", "lru", 2.0),
                   "prism-h": fake_result("S1", "prism-h", 1.6),
                   "waypart-hitmax": fake_result("S1", "waypart-hitmax", 1.8)},
        }
        result = summarise_with(fig05_vs_waypart, from_canned(canned), mixes=["S1"])
        assert result["rows"][0]["prism"] == pytest.approx(0.8)
        assert result["rows"][0]["waypart"] == pytest.approx(0.9)
        assert result["geomean"]["prism"] == pytest.approx(0.8)


class TestFig10Math:
    def test_achievement_counting(self):
        def fake_run(mix, config, scheme, **kwargs):
            slowdowns = {"S1": 0.82, "S2": 0.70, "S3": 0.40}
            if scheme == "lru":
                return fake_result(mix, "lru", 2.0, slowdown0=0.3)
            return fake_result(mix, scheme, 1.5, slowdown0=slowdowns[mix])

        result = summarise_with(fig10_qos, fake_run, mixes=["S1", "S2", "S3"],
                                target_fraction=0.8, tolerance=0.15)
        # 0.82 >= 0.8; 0.70 >= 0.8*0.85=0.68; 0.40 < 0.68.
        assert result["achieved"] == 2
        assert [r["achieved"] for r in result["rows"]] == [True, True, False]
        assert all(r["lru_slowdown"] == pytest.approx(0.3) for r in result["rows"])

    def test_format_marks_misses(self):
        def fake_run(mix, config, scheme, **kwargs):
            return fake_result(mix, scheme, 1.5, slowdown0=0.4)

        result = summarise_with(fig10_qos, fake_run, mixes=["S1"], target_fraction=0.8)
        text = fig10_qos.format_result(result)
        assert "NO" in text


class TestFig4Math:
    def test_occupancy_rows(self):
        canned = {
            "Q1": {"prism-h": fake_result("Q1", "prism-h", 1.0),
                   "ucp": fake_result("Q1", "ucp", 1.2)},
        }
        result = summarise_with(fig04_occupancy, from_canned(canned), mixes=["Q1"])
        assert len(result["rows"]) == 4
        assert result["rows"][0]["prism_occupancy"] == pytest.approx(0.25)
        text = fig04_occupancy.format_result(result)
        assert "Q1" in text


class TestFig6Math:
    def test_single_ratio_column(self):
        canned = {
            "S1": {"lru": fake_result("S1", "lru", 3.0),
                   "prism-h": fake_result("S1", "prism-h", 2.4)},
            "S2": {"lru": fake_result("S2", "lru", 2.0),
                   "prism-h": fake_result("S2", "prism-h", 1.9)},
        }
        result = summarise_with(
            fig06_cores_eq_ways, from_canned(canned), mixes=["S1", "S2"]
        )
        assert result["rows"][0]["prism_vs_lru"] == pytest.approx(0.8)
        assert result["geomean"] == pytest.approx(geomean([0.8, 0.95]))
        assert "16way" in result["geometry"]


class TestFig7Math:
    def test_timestamp_lru_normalisation(self):
        canned = {
            "Q1": {"tslru": fake_result("Q1", "tslru", 2.0),
                   "vantage": fake_result("Q1", "vantage", 1.8),
                   "prism-ucpx": fake_result("Q1", "prism-ucpx", 1.6)},
        }
        result = summarise_with(
            fig07_vantage, from_canned(canned), quad_mixes=["Q1"],
            sixteen_mixes=["Q1"],
        )
        panel = result["quad"]
        assert panel["rows"][0]["vantage"] == pytest.approx(0.9)
        assert panel["rows"][0]["prism"] == pytest.approx(0.8)
        assert panel["geomean"]["prism"] == pytest.approx(0.8)


class TestFig11Math:
    def test_stats_flattened_per_benchmark(self):
        def fake_run(mix, config, scheme, **kwargs):
            r = fake_result(mix, scheme, 1.0)
            # 40 intervals with constant E_i = 0.1*(core+1): the figure's
            # probability_stats() must report exactly that mean per core.
            trace = RunTelemetry(num_cores=4, benchmarks=r.benchmarks)
            for interval in range(40):
                for core, name in enumerate(r.benchmarks):
                    trace.samples.append(
                        IntervalSample(
                            interval=interval, core=core, benchmark=name,
                            occupancy=0.25, miss_fraction=0.25,
                            eviction_probability=0.1 * (core + 1), target=0.25,
                            hits=0, misses=0, evictions=0, instructions=0,
                            ipc=0.0,
                        )
                    )
            return WorkloadResult(
                **{**r.__dict__, "intervals": 40, "telemetry": trace}
            )

        result = summarise_with(fig11_evprob, fake_run, mixes=["Q1", "Q2"])
        assert len(result["rows"]) == 8
        assert result["rows"][1]["mean"] == pytest.approx(0.2)
        assert result["recomputations_min"] == result["recomputations_max"] == 40


class TestFig8Math:
    def test_majority_counting(self):
        def result_with_misses(mix, scheme, misses_by_core):
            r = fake_result(mix, scheme, 1.0)
            for core, misses in enumerate(misses_by_core):
                r.cores[core] = r.cores[core].__class__(
                    **{**r.cores[core].__dict__, "misses": misses}
                )
            return r

        canned = {
            # 3 of 4 improve in Q1; only 1 of 4 in Q2.
            "Q1": {"vantage": result_with_misses("Q1", "vantage", [100, 100, 100, 100]),
                   "prism-ucpx": result_with_misses("Q1", "prism-ucpx", [50, 60, 70, 150])},
            "Q2": {"vantage": result_with_misses("Q2", "vantage", [100, 100, 100, 100]),
                   "prism-ucpx": result_with_misses("Q2", "prism-ucpx", [50, 150, 150, 150])},
        }
        result = summarise_with(
            fig08_vantage_misses, from_canned(canned), mixes=["Q1", "Q2"]
        )
        assert result["mixes_with_3plus_improved"] == 1
        ratios = {(r["mix"], r["core"]): r["miss_ratio"] for r in result["rows"]}
        assert ratios[("Q1", 0)] == pytest.approx(0.5)
        assert ratios[("Q2", 3)] == pytest.approx(1.5)


class TestFig9Math:
    def test_fairness_rows_and_geomean(self):
        def result_with_fairness(mix, scheme, fairness, antt):
            r = fake_result(mix, scheme, antt)
            return WorkloadResult(**{**r.__dict__, "fairness": fairness})

        canned = {
            "S1": {"lru": result_with_fairness("S1", "lru", 0.30, 2.0),
                   "fair-waypart": result_with_fairness("S1", "fair-waypart", 0.36, 1.9),
                   "prism-f": result_with_fairness("S1", "prism-f", 0.45, 1.8)},
            "S2": {"lru": result_with_fairness("S2", "lru", 0.40, 2.0),
                   "fair-waypart": result_with_fairness("S2", "fair-waypart", 0.44, 1.9),
                   "prism-f": result_with_fairness("S2", "prism-f", 0.50, 1.6)},
        }
        result = summarise_with(fig09_fairness, from_canned(canned), mixes=["S1", "S2"])
        g = result["geomean"]
        assert g["lru"] == pytest.approx(geomean([0.30, 0.40]))
        assert g["prism_f"] == pytest.approx(geomean([0.45, 0.50]))
        assert g["prism_f_antt_vs_lru"] == pytest.approx(geomean([0.9, 0.8]))


class TestFig13Math:
    def test_interval_sweep_and_averages(self):
        def fake_run(mix, config, scheme, **kwargs):
            interval = kwargs["scheme_kwargs"]["interval_len"]
            # Not-found rate inversely related to interval in this fake.
            r = fake_result(mix, scheme, 1.0)
            r.victim_not_found_rate = 100.0 / interval
            return r

        result = summarise_with(
            fig13_victim_notfound, fake_run,
            mixes=["Q1", "Q2"], interval_multipliers=(0.5, 1.0),
        )
        n = result["num_blocks"]
        assert result["average"]["w0.5"] == pytest.approx(100.0 / (n // 2))
        assert result["average"]["w1.0"] == pytest.approx(100.0 / n)
        assert result["average"]["w0.5"] > result["average"]["w1.0"]


class TestFig12Math:
    def test_ratio_against_float_reference(self):
        def fake_run(mix, config, scheme, **kwargs):
            bits = (kwargs.get("scheme_kwargs") or {}).get("probability_bits")
            antt = {None: 2.0, 6: 2.2, 8: 2.0}[bits]
            return fake_result(mix, scheme, antt)

        result = summarise_with(fig12_kbit, fake_run, mixes=["Q1"], bit_widths=(6, 8))
        assert result["rows"][0]["bits6"] == pytest.approx(1.1)
        assert result["rows"][0]["bits8"] == pytest.approx(1.0)
        assert result["geomean"]["bits6"] == pytest.approx(1.1)
