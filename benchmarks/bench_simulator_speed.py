"""Simulator micro-benchmarks: accesses/second of the hot path.

Unlike the figure benches (minutes-long experiments, one round), these are
true pytest-benchmark microbenchmarks with multiple rounds: they track the
cost of the cache access path under each scheme class so performance
regressions in the substrate are visible.

Also runnable directly (no pytest-benchmark needed)::

    PYTHONPATH=src python benchmarks/bench_simulator_speed.py

which times every scenario best-of-N (``time.perf_counter``, one untimed
warm-up round first) and *appends* a run entry (keyed by git SHA) to
``BENCH_speed.json`` — the trajectory artifact CI archives so hot-path
throughput accumulates per commit instead of being overwritten.
End-to-end timings of real runs live in ``perfbench/``.
"""

from repro.cache.cache import SharedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import TimestampLRUPolicy
from repro.core import HitMaxPolicy, PrismScheme
from repro.partitioning import UCPScheme, VantageScheme
from repro.util.rng import make_rng

GEOMETRY = CacheGeometry(64 << 10, 64, 16)
ACCESSES = 20_000


def _stream(seed=1):
    rng = make_rng(seed, "speed")
    return [(rng.randrange(4), rng.randrange(3000)) for _ in range(ACCESSES)]


def _drive(cache, stream):
    access = cache.access
    for core, addr in stream:
        access(core, (core << 20) + addr)
    return cache.stats.total_misses()


def test_speed_unmanaged_lru(benchmark):
    stream = _stream()
    result = benchmark(lambda: _drive(SharedCache(GEOMETRY, 4), stream))
    assert result > 0


def test_speed_prism(benchmark):
    stream = _stream()

    def run():
        cache = SharedCache(GEOMETRY, 4)
        cache.set_scheme(PrismScheme(HitMaxPolicy(), sample_shift=1))
        return _drive(cache, stream)

    assert benchmark(run) > 0


def test_speed_ucp(benchmark):
    stream = _stream()

    def run():
        cache = SharedCache(GEOMETRY, 4)
        cache.set_scheme(UCPScheme(sample_shift=1))
        return _drive(cache, stream)

    assert benchmark(run) > 0


def test_speed_vantage(benchmark):
    stream = _stream()

    def run():
        cache = SharedCache(GEOMETRY, 4, policy=TimestampLRUPolicy())
        cache.set_scheme(VantageScheme(sample_shift=1))
        return _drive(cache, stream)

    assert benchmark(run) > 0


# -- standalone mode ---------------------------------------------------------


def _unmanaged_lru():
    return SharedCache(GEOMETRY, 4)


def _prism():
    cache = SharedCache(GEOMETRY, 4)
    cache.set_scheme(PrismScheme(HitMaxPolicy(), sample_shift=1))
    return cache


def _ucp():
    cache = SharedCache(GEOMETRY, 4)
    cache.set_scheme(UCPScheme(sample_shift=1))
    return cache


def _vantage():
    cache = SharedCache(GEOMETRY, 4, policy=TimestampLRUPolicy())
    cache.set_scheme(VantageScheme(sample_shift=1))
    return cache


SCENARIOS = {
    "unmanaged_lru": _unmanaged_lru,
    "prism": _prism,
    "ucp": _ucp,
    "vantage": _vantage,
}


def _best_of(run, rounds):
    """Best wall-clock of ``rounds`` timed calls, after one warm-up call.

    The warm-up round is not timed: it pages in the engine code paths
    and warms the allocator, so round-to-round variance reflects the
    engine, not process start-up.
    """
    import time

    run()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_standalone(accesses: int = 100_000, rounds: int = 3) -> dict:
    """Best-of-``rounds`` accesses/second for every scenario."""
    rng = make_rng(1, "speed")
    stream = [(rng.randrange(4), rng.randrange(3000)) for _ in range(accesses)]
    results = {}
    for name, factory in SCENARIOS.items():
        holder = {}

        def run():
            holder["misses"] = _drive(factory(), stream)

        best = _best_of(run, rounds)
        assert holder["misses"] > 0
        results[name] = {
            "accesses": accesses,
            "rounds": rounds,
            "best_seconds": round(best, 6),
            "accesses_per_sec": round(accesses / best, 1),
        }
    return results


def _git_sha() -> str:
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        sha = out.stdout.strip() or "unknown"
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10,
        )
        if sha != "unknown" and status.stdout.strip():
            sha += "+dirty"
        return sha
    except OSError:
        return "unknown"


def _append_trajectory(path, entry) -> dict:
    """Append ``entry`` to the run trajectory in ``path`` (format 2).

    The artifact accumulates one entry per invocation instead of being
    overwritten, so the per-PR perf history the ROADMAP asks for actually
    builds up. A pre-format-2 file (one flat snapshot) is preserved under
    ``"legacy"``.
    """
    import json
    import os

    doc = {"format": 2, "runs": []}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                old = json.load(fh)
        except (OSError, ValueError):
            old = None
        if isinstance(old, dict) and old.get("format") == 2:
            doc = old
        elif old is not None:
            doc["legacy"] = old
    doc["runs"].append(entry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def main(argv=None) -> int:
    import argparse
    import json
    import time

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=100_000,
                        help="stream length per scenario")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("-o", "--output", default="BENCH_speed.json")
    args = parser.parse_args(argv)

    scenarios = run_standalone(accesses=args.accesses, rounds=args.rounds)
    print("scenarios (64 KiB figure machine):")
    for name, row in scenarios.items():
        print(f"{name:>16}: {row['accesses_per_sec']:>12,.0f} accesses/sec")

    entry = {
        "sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scenarios": scenarios,
    }
    doc = _append_trajectory(args.output, entry)
    print(f"\nwrote {args.output} ({len(doc['runs'])} run(s) in trajectory)")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
