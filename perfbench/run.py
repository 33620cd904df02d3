#!/usr/bin/env python3
"""End-to-end benchmark of real simulator runs, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload paper-q7 --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh processes), the median host time of one closed-loop
iteration, simulated LLC accesses per host second, peak resident memory
and PriSM-H's weighted-speedup ratio over the unmanaged run.
``--trace 1`` alternates untraced and traced iterations and reports, per
layer, calls, self time and share of the traced iteration, plus the
deterministic counters and the tracing overhead.

Every iteration's results are checked outside the timed region (see
:func:`workloads.check_outcome`); at the pinned seed the result digests
must equal ``pins.json``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Scratch files
(result stores, the span dump) go to ``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_NAMES, ROOT as ROOT_SPAN, Tracer, traced
from workloads import (
    WORKLOADS, accesses, check_outcome, digest, run_iteration, setup, ws_ratio,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: The seed whose result digests are pinned in ``pins.json``.
PINNED_SEED = 0
#: Least number of fresh processes timed for ``setup_s``: one follows
#: every iteration (the median is reported).
SETUP_PROBES = 5
#: Iterations run even when one overruns ``--seconds``.
MIN_ITERATIONS = 3
#: Untraced/traced iteration pairs in a traced run. Spans stay in memory
#: until the end, 40 bytes each and over a million per traced iteration.
TRACED_PAIRS = 2


def _import_simulator() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from it; refuse to run against any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it has set up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        returncode = proc.wait(timeout=120)
    if line.strip() != "ready" or returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {returncode}): {line!r}")
    return elapsed


class Bench:
    """Runs and checks iterations of one workload; tallies failures."""

    def __init__(self, workload, config, seed: int) -> None:
        self.workload = workload
        self.config = config
        self.seed = seed
        self.expected = None
        if seed == PINNED_SEED:
            pins = json.loads((HERE / "pins.json").read_text())
            self.expected = pins["digests"][workload.name]
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self.outcomes: list = []

    def iterate(self, index: int, tracer=None):
        """One timed iteration, then its checks; returns (wall_s, outcome)."""
        from repro.experiments.runner import DEFAULT_STANDALONE_CACHE

        DEFAULT_STANDALONE_CACHE.clear()
        store_dir = SCRATCH / f"store-{os.getpid()}-{index}"
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            if tracer is None:
                start = time.perf_counter()
                outcome = run_iteration(self.workload, self.config, self.seed, store_dir)
                wall = time.perf_counter() - start
            else:
                with traced(tracer), tracer.root(index) as stamps:
                    outcome = run_iteration(
                        self.workload, self.config, self.seed, store_dir
                    )
                wall = stamps[1] - stamps[0]
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        self._check(outcome)
        return wall, outcome

    def _check(self, outcome) -> None:
        if self.expected is None and outcome.complete:
            # Unpinned seed: later iterations must reproduce the first.
            self.expected = {s: digest(r) for s, r in outcome.results.items()}
        failed, messages = check_outcome(self.workload, outcome, self.expected)
        self.attempted += outcome.attempted
        self.failed += failed
        self.messages.extend(messages)
        self.outcomes.append(outcome)

    def good_outcome(self):
        """The first outcome whose every run succeeded, or None."""
        return next((o for o in self.outcomes if o.complete), None)


def end_to_end(bench: Bench, seconds: float) -> dict:
    """The untraced run: every end-to-end metric."""
    setup_s, walls, rates = [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        wall, outcome = bench.iterate(len(walls))
        walls.append(wall)
        rates.append(accesses(outcome) / wall)
        # Set-up probes spread over the run, like the iterations, so that
        # both sample the same spells of host speed.
        setup_s.append(_probe_setup(bench.workload.name))
    while len(setup_s) < SETUP_PROBES:
        setup_s.append(_probe_setup(bench.workload.name))
    print("# wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    good = bench.good_outcome()
    if good is None:
        return {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "sim_aps": (statistics.median(rates), "accesses/s"),
        "peak_rss_mb": (peak, "MiB"),
        "sim_ws_ratio": (ws_ratio(bench.workload, good), "ratio"),
    }


class Counters:
    """Deterministic counters read from public simulator state."""

    def __init__(self) -> None:
        self.l1_hits = self.l1_misses = 0
        self.row_hits = self.row_conflicts = 0
        self.dram_requests = 0
        self.queue_delay = 0.0
        self.clusters = 0

    def on_system_run(self, args, result) -> None:
        system = args[0]
        for l1 in system.l1s or ():
            self.l1_hits += l1.hits
            self.l1_misses += l1.misses
        memory = system.memory
        self.row_hits += memory.row_hits
        self.row_conflicts += memory.row_conflicts
        self.dram_requests += memory.requests
        self.queue_delay += memory.total_queue_delay

    def on_core_map(self, args, result) -> None:
        self.clusters = max(result) + 1


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(bench: Bench) -> dict:
    """The traced run: per-layer calls/self time/share, counters, overhead."""
    tracer = Tracer()
    counters = Counters()
    tracer.on_return["repro.cpu.system:MultiCoreSystem.run"] = counters.on_system_run
    tracer.on_return["repro.clustering.scaleout:derive_core_map"] = counters.on_core_map
    tracer.calibrate()
    # A first, unrecorded iteration pays the process's one-time costs, so
    # that they do not land on one side of the traced/untraced pairs.
    bench.iterate(0)
    untraced, traced_walls, traced_outcomes = [], [], []
    for index in range(TRACED_PAIRS):
        untraced.append(bench.iterate(2 * index + 1)[0])
        wall, outcome = bench.iterate(2 * index + 2, tracer)
        traced_walls.append(wall)
        traced_outcomes.append(outcome)
    n = len(traced_walls)
    overhead = statistics.median(traced_walls) - statistics.median(untraced)
    tracer.fit_costs(overhead, len(tracer.times) // 2 // n, statistics.median(untraced))
    SCRATCH.mkdir(exist_ok=True)
    tracer.save(SCRATCH / f"spans-{bench.workload.name}.npz")
    report = tracer.report(inclusive=("standalone",))
    wall = statistics.fmean(traced_walls)
    metrics = {}
    for layer in LAYER_NAMES:
        entry = report["layers"][layer]
        # Clamped: a fitted wrapper cost can overshoot a tiny layer.
        self_s = max(entry["self_s"], 0.0) / n
        metrics[f"{layer}.calls"] = (entry["calls"] // n, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (self_s / wall, "fraction")
    metrics["standalone.total_s"] = (report["inclusive"]["standalone"] / n, "s")

    results = [
        r for outcome in traced_outcomes for r in outcome.results.values() if r is not None
    ]
    cores = [c for r in results for c in r.cores]
    hits = sum(c.hits for c in cores)
    vnf = [r.victim_not_found_rate for r in results if r.victim_not_found_rate is not None]
    timed_cores = cores if bench.workload.timed else []
    metrics.update({
        "cache.hit_rate": (_ratio(hits, hits + sum(c.misses for c in cores)), "fraction"),
        "cache.victim_not_found_rate": (_ratio(sum(vnf), len(vnf)), "fraction"),
        "core.intervals": (sum(r.intervals for r in results) // n, "count"),
        "cpu.core_model.llc_stall_cpi": (
            _ratio(sum(c.llc_stall_cpi for c in timed_cores), len(timed_cores)),
            "cycles/instr",
        ),
        "cpu.l1.hit_rate": (
            _ratio(counters.l1_hits, counters.l1_hits + counters.l1_misses), "fraction"
        ),
        "cpu.l1.back_invalidations": (
            report["calls"]["repro.cpu.l1:L1Cache.invalidate"] // n, "count"
        ),
        "cpu.memory.row_hit_rate": (
            _ratio(counters.row_hits, counters.row_hits + counters.row_conflicts),
            "fraction",
        ),
        "cpu.memory.mean_queue_delay_cycles": (
            _ratio(counters.queue_delay, counters.dram_requests), "cycles"
        ),
        "clustering.clusters": (counters.clusters, "count"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unattributed_s": (report["layers"][ROOT_SPAN]["self_s"] / n, "s"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    _import_simulator()
    from repro.experiments.paper_values import claims_for

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    config = setup(workload)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    bench = Bench(workload, config, args.seed)
    if args.trace:
        metrics = per_layer(bench)
    else:
        metrics = end_to_end(bench, args.seconds)
    good = bench.good_outcome()
    if good is None:
        for message in bench.messages:
            print(f"perfbench: {message}", file=sys.stderr)
        print("perfbench: no iteration completed a run of every scheme", file=sys.stderr)
        return 1

    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"iterations={len(bench.outcomes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(f"{'error_rate':40s} {_ratio(bench.failed, bench.attempted):.6g} fraction")
    note = ""
    if workload.paper_claim is not None:
        experiment, slug = workload.paper_claim
        value = next(c.value for c in claims_for(experiment) if c.metric == slug)
        note = f" (paper {experiment} {slug}: {value})"
    print(f"{'sim_ws_gain':40s} {ws_ratio(workload, good) - 1.0:.6g} ratio{note}")
    for scheme, result in good.results.items():
        print(f"digest {scheme:10s} {digest(result)}")
    for message in bench.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
