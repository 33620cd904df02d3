"""Figure 1 — motivation: scheme scalability and fine-grained partitioning.

Regenerates both panels: (a) UCP/PIPP ANTT vs LRU and way-partitioning
fairness across 4-32 cores, (b) LRU/UCP throughput at 16/64/256-way
associativity.
"""

from conftest import INSTRUCTIONS, MIXES_PER_COUNT

from repro.experiments import RunOptions
from repro.experiments.registry import get_experiment


def test_fig1_motivation(benchmark, report):
    result = benchmark.pedantic(
        lambda: get_experiment("fig1").run(
            options=RunOptions(instructions=INSTRUCTIONS),
            mixes_per_count=MIXES_PER_COUNT or None,
        ),
        rounds=1,
        iterations=1,
    )
    rows = result["scalability"]["rows"]
    assert [r["cores"] for r in rows] == [4, 8, 16, 32]
    # The motivation trend: UCP's advantage over LRU shrinks from 4 to 32
    # cores (ANTT ratio drifts toward 1).
    assert rows[3]["ucp_antt_vs_lru"] > rows[0]["ucp_antt_vs_lru"] - 0.05
    report(
        "Figure 1(a) rows (UCP/PIPP ANTT vs LRU; fairness):\n"
        + "\n".join(str(r) for r in rows)
    )
    rows = result["fine_grain"]["rows"]
    assert [r["assoc"] for r in rows] == [16, 64, 256]
    # Finer partitioning (higher assoc) must not hurt UCP's throughput.
    assert rows[2]["ucp_throughput_4c"] >= rows[0]["ucp_throughput_4c"] * 0.95
    report(
        "Figure 1(b) rows (IPC throughput by associativity):\n"
        + "\n".join(str(r) for r in rows)
    )
