"""Golden digests of every registry experiment's summary.

Runs the whole registry at ``BUDGETS["micro"]`` the way the report does
— the union of every figure's runs, simulated once — and hashes each
experiment's summary: ``json.dumps`` with sorted keys, floats serialised
by ``repr`` (json's float format). Equal digests mean equal summaries, so
a change to the experiment layer that is meant to keep behaviour must
leave every pin below untouched. A summary that is not plain data fails
to serialise and fails its test.

To print the digests of the current code (e.g. when a change sets out to
alter results and says so)::

    PYTHONPATH=src python tests/golden/test_figure_digests.py
"""

import functools
import hashlib
import json
from typing import Dict

import pytest

from repro.experiments.registry import EXPERIMENTS, run_experiments
from repro.experiments.report import BUDGETS

#: Experiment id -> digest of its summary at ``BUDGETS["micro"]``.
PINS = {
    "fig1": "0659ddd33d861e90",
    "fig2": "a2913334454a4120",
    "fig3": "59aa14e8e7158cd8",
    "fig4": "d20bff573743cec9",
    "fig5": "fe779aa27b9b3d37",
    "fig6": "6c1a89e8c17c8e8f",
    "fig7": "85162bfc14de6cd4",
    "fig8": "f28704e6bc2e3efb",
    "fig9": "2cc14022d9714db6",
    "fig10": "fd8cdbb0fe1baff9",
    "fig11": "5895029846678d71",
    "fig12": "6ac50291321a1884",
    "fig13": "462c6081e8fa925e",
    "sec56": "e295aea228e348e5",
    "tenants": "710925debe574f62",
    "headroom": "b0f5c3477a79a006",
    "scaleout": "f044b88eb5199cad",
}


@functools.lru_cache(maxsize=None)
def micro_summaries() -> Dict[str, dict]:
    """Every experiment's summary at the micro budget, from one pooled run.

    Cached for the session: the smoke tests in
    ``tests/experiments/test_registry_and_figures.py`` read the same
    summaries, so tier-1 simulates the micro grid once.
    """
    plan = [(e, BUDGETS["micro"][e.id]) for e in EXPERIMENTS.values()]
    return {
        experiment.id: summary
        for (experiment, _), summary in zip(plan, run_experiments(plan, jobs=1))
    }


def digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_pins_cover_registry():
    assert set(PINS) == set(EXPERIMENTS) == set(BUDGETS["micro"])


@pytest.mark.parametrize("experiment_id", sorted(PINS))
def test_figure_digest(experiment_id):
    assert digest(micro_summaries()[experiment_id]) == PINS[experiment_id]


if __name__ == "__main__":
    for experiment_id, summary in micro_summaries().items():
        print(f"    {experiment_id!r}: {digest(summary)!r},")
