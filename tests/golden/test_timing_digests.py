"""Golden digests of the timing-coupled path.

Each case runs a 4-core Q7 mix through ``run_workload`` (stream
generation, private L1s where configured, the shared LLC, the DRAM model
and the event loop of :class:`~repro.cpu.system.MultiCoreSystem`) and
hashes the simulated results the same way ``perfbench/workloads.py``
does: per-core ``ipc``/``hits``/``misses``/``occupancy_at_finish`` plus
``intervals`` and ``victim_not_found_rate``, floats serialised by
``repr``. Equal digests mean bit-equal results, so a change that is meant
to keep behaviour must leave every pin below untouched.

To print the digests of the current code (e.g. when a change sets out to
alter results and says so)::

    PYTHONPATH=src python tests/golden/test_timing_digests.py
"""

import hashlib
import json

import pytest

from repro.experiments.configs import machine
from repro.experiments.runner import run_workload

INSTRUCTIONS = 30_000

#: Machine name -> keyword arguments of :func:`machine` (4 cores).
MACHINES = {
    "flat": {},
    "hier": {"l1": "inclusive", "dram_banks": 8, "dram_row_blocks": 32},
}

#: (machine, scheme) -> digest of the Q7 run at seed 0.
PINS = {
    ("flat", "lru"): "97c65e6c65edb3ee",
    ("flat", "prism-h"): "1404b96a031365a1",
    ("flat", "prism-f"): "b8d5b1b4871cd317",
    ("hier", "plru"): "584a5485f61d9cb2",
    ("hier", "prism-h"): "f01495f0e5acd044",
    ("hier", "belady"): "3338fb906dfab4e3",
}


def digest(result) -> str:
    payload = {
        "cores": [
            [c.ipc, c.hits, c.misses, c.occupancy_at_finish] for c in result.cores
        ],
        "intervals": result.intervals,
        "victim_not_found_rate": result.victim_not_found_rate,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_case(machine_name: str, scheme: str):
    config = machine(4, **MACHINES[machine_name])
    return run_workload("Q7", config, scheme, seed=0, instructions=INSTRUCTIONS)


@pytest.mark.parametrize("machine_name,scheme", sorted(PINS))
def test_timing_digest(machine_name, scheme):
    assert digest(run_case(machine_name, scheme)) == PINS[machine_name, scheme]


if __name__ == "__main__":
    for case in PINS:
        print(f"    {case!r}: {digest(run_case(*case))!r},")
