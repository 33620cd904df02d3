#!/usr/bin/env python3
"""Self-tests for the benchmark harness.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import unittest
from pathlib import Path

import run
import tracing
import workloads
from tracing import Target, Tracer, traced

run._import_simulator()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Small budgets: enough for every layer to do work, seconds per run.
SMALL = {
    "paper-q7": 20_000,
    "hier-q7": 20_000,
    "tenants-smoke4": 30_000,
    "scale16-clustered": 20_000,
}
SEED = 1  # unpinned: the pins hold for the full budgets only


def small_bench(name: str) -> run.Bench:
    workload = dataclasses.replace(workloads.WORKLOADS[name], instructions=SMALL[name])
    return run.Bench(workload, workloads.setup(workload), SEED)


class FakeClock:
    """A clock that moves only when the synthetic callables do work."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        clock = FakeClock()
        tracer = Tracer(
            targets=(Target("outer", "m:outer"), Target("inner", "m:inner")),
            clock=clock,
        )

        def work(seconds):
            clock.now += seconds

        def inner_fn(seconds):
            work(seconds)

        inner = tracer.wrap(inner_fn, 2)

        def outer_fn():
            work(1.0)
            inner(2.0)
            work(0.5)
            inner(3.0)

        outer = tracer.wrap(outer_fn, 1)
        with tracer.root(7):
            work(0.25)
            outer()
            inner(4.0)

        report = tracer.report()["layers"]
        self.assertEqual(report["outer"], {"calls": 1, "self_s": 1.5})
        self.assertEqual(report["inner"], {"calls": 3, "self_s": 9.0})
        self.assertEqual(report[tracing.ROOT], {"calls": 1, "self_s": 0.25})
        self.assertEqual(set(tracer.run_ids()), {7})

        # Wrapper cost: each wrapped span loses cost_in, and its parent
        # loses cost_out once per direct child.
        tracer.cost_in, tracer.cost_out = 0.01, 0.1
        report = tracer.report(inclusive=("outer",))
        self.assertAlmostEqual(report["layers"]["outer"]["self_s"], 1.5 - 0.01 - 2 * 0.1)
        self.assertAlmostEqual(report["layers"]["inner"]["self_s"], 9.0 - 3 * 0.01)
        self.assertAlmostEqual(report["layers"][tracing.ROOT]["self_s"], 0.25 - 2 * 0.1)
        self.assertAlmostEqual(report["inclusive"]["outer"], 6.5 - 3 * 0.01 - 2 * 0.1)

    def test_generator_spans_time_each_item(self):
        clock = FakeClock()
        tracer = Tracer(targets=(Target("gen", "m:gen", True),), clock=clock)

        def chunks(n):
            for i in range(n):
                clock.now += 1.0
                yield i

        wrapped = tracer.wrap(chunks, 1, generator=True)
        with tracer.root(0):
            for _ in wrapped(3):
                clock.now += 10.0
        report = tracer.report()["layers"]
        self.assertEqual(report["gen"], {"calls": 3, "self_s": 3.0})
        self.assertEqual(report[tracing.ROOT]["self_s"], 30.0)


class InstallTest(unittest.TestCase):
    def snapshot(self):
        state = []
        for target in tracing.LAYERS:
            owner, attr = tracing._resolve(target.path)
            state.append((owner, attr, vars(owner).get(attr, KeyError)))
        return state

    def test_wrappers_fully_removed(self):
        before = self.snapshot()
        bench = small_bench("paper-q7")
        tracer = Tracer()
        with traced(tracer):
            for owner, attr, _ in before:
                self.assertTrue(hasattr(getattr(owner, attr), "__wrapped__"), attr)
        with self.assertRaises(ZeroDivisionError):
            with traced(tracer):
                1 / 0
        bench.iterate(0, tracer)
        for (owner, attr, original), (_, _, now) in zip(before, self.snapshot()):
            self.assertIs(now, original, f"{owner.__name__}.{attr} not restored")
        self.assertEqual(bench.failed, 0, bench.messages)


class ContractTest(unittest.TestCase):
    def test_metric_names_and_counts(self):
        e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
        layer = [m["name"] for m in BENCHMARK["per_layer"]]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layer), 128)
        for name in e2e + layer + [w["name"] for w in BENCHMARK["workloads"]]:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(set(e2e + layer)), len(e2e + layer))
        self.assertEqual(
            [w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS)
        )

    def test_runs_emit_exactly_the_declared_metrics(self):
        bench = small_bench("tenants-smoke4")
        probes, run.SETUP_PROBES = run.SETUP_PROBES, 1
        try:
            metrics = run.end_to_end(bench, 0)
        finally:
            run.SETUP_PROBES = probes
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)
        metrics = run.per_layer(small_bench("tenants-smoke4"))
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual({k: u for k, (_, u) in metrics.items()}, declared)


class DeterminismTest(unittest.TestCase):
    COUNTS = re.compile(r"\.calls$|hit_rate|not_found|intervals|stall_cpi|"
                        r"back_invalidations|queue_delay|clusters$")

    def test_counters_repeat_exactly(self):
        for name in SMALL:
            with self.subTest(workload=name):
                first, second = (
                    run.per_layer(small_bench(name)) for _ in range(2)
                )
                counts = {k: v for k, v in first.items() if self.COUNTS.search(k)}
                self.assertEqual(
                    counts, {k: second[k] for k in counts}
                )
                reached = {k for k, (v, _) in first.items()
                           if k.endswith(".calls") and v > 0}
                self.assertIn("cache.calls", reached)
                self.assertIn("standalone.calls", reached)


class CheckTest(unittest.TestCase):
    def test_checks_catch_a_changed_result(self):
        bench = small_bench("paper-q7")
        _, outcome = bench.iterate(0)
        self.assertEqual(bench.failed, 0, bench.messages)
        expected = {s: workloads.digest(r) for s, r in outcome.results.items()}
        lru = outcome.results["lru"]
        outcome.resumed["lru"] = dataclasses.replace(lru, intervals=lru.intervals + 1)
        failed, messages = workloads.check_outcome(bench.workload, outcome, expected)
        self.assertEqual(failed, 1, messages)
        expected["prism-h"] = "0" * 16
        failed, _ = workloads.check_outcome(bench.workload, outcome, expected)
        self.assertEqual(failed, 2)

    def test_pins_cover_every_scheme(self):
        pins = json.loads((Path(run.HERE) / "pins.json").read_text())
        self.assertEqual(pins["seed"], run.PINNED_SEED)
        for name, workload in workloads.WORKLOADS.items():
            self.assertEqual(set(pins["digests"][name]), set(workload.schemes))


if __name__ == "__main__":
    unittest.main()
