"""Experiment registry: every paper table/figure as declared runs + a reduction.

Each experiment module provides

- ``specs(**budget) -> [(MachineConfig, RunSpec)]``: the runs it needs,
  where ``budget`` is ``instructions``, ``seed`` and the figure's own
  keyword arguments (``mixes``, ``core_counts``, ...);
- ``summarise(results, **budget) -> dict``: the figure's plain-data
  summary, from ``results[i]`` = the outcome of the ``i``-th spec (it
  takes the same keywords as ``specs`` and ignores those it does not
  need);
- ``format_result(summary) -> str``: the paper-style table.

:meth:`Experiment.run` runs one experiment; :func:`run_experiments`
runs several at once, simulating the union of their runs once per
machine; :func:`paper_grid` is that union, for prefetching it elsewhere
(e.g. over a herd). The report, the CLI, the tests and ``benchmarks/``
all go through these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    fig01_motivation,
    fig02_summary,
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
    fig_headroom,
    multi_tenant,
    sec56_dip,
)
from repro.clustering import scaleout
from repro.experiments.configs import MachineConfig
from repro.experiments.options import RunOptions, resolve_run_options
from repro.experiments.parallel import RunSpec, run_specs

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "get_experiment",
    "paper_grid",
    "run_experiments",
]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper result (see the module docstring)."""

    id: str
    title: str
    specs: Callable[..., List[Tuple[MachineConfig, RunSpec]]]
    summarise: Callable[..., Dict]
    format: Callable[[Dict], str]

    def run(self, options: Optional[RunOptions] = None, **kwargs) -> Dict:
        """Run this experiment and return its summary.

        ``options`` carries the run controls: ``instructions`` and
        ``seed`` join the figure keywords ``kwargs`` as the budget, and
        ``jobs``, ``store`` and ``progress`` go to ``run_specs``.

        Raises:
            TypeError: a run control passed as a bare keyword argument,
                or ``options`` that is not a :class:`RunOptions`.
        """
        opts = resolve_run_options(options, kwargs)
        budget = dict(kwargs, instructions=opts.instructions, seed=opts.seed)
        [summary] = run_experiments(
            [(self, budget)], jobs=opts.jobs, store=opts.store, progress=opts.progress
        )
        return summary


Plan = Sequence[Tuple[Experiment, dict]]


def _by_machine(plan: Plan) -> Dict[MachineConfig, List[RunSpec]]:
    grid: Dict[MachineConfig, List[RunSpec]] = {}
    for experiment, budget in plan:
        for config, spec in experiment.specs(**budget):
            grid.setdefault(config, []).append(spec)
    return grid


def run_experiments(
    plan: Plan, jobs: Optional[int] = None, store=None, progress=None
) -> List[Dict]:
    """The summary of every ``(experiment, budget)`` in ``plan``.

    The union of the plan's specs runs through one ``run_specs`` call per
    machine, which simulates each distinct fingerprint once; every
    experiment then summarises its own slice, in its spec order.
    """
    served = {
        config: iter(run_specs(specs, config, jobs=jobs, progress=progress, store=store))
        for config, specs in _by_machine(plan).items()
    }
    return [
        experiment.summarise(
            [next(served[config]) for config, _ in experiment.specs(**budget)],
            **budget,
        )
        for experiment, budget in plan
    ]


EXPERIMENTS: Dict[str, Experiment] = {
    experiment_id: Experiment(
        experiment_id, title, module.specs, module.summarise, module.format_result
    )
    for experiment_id, title, module in [
        ("fig1", "Motivation: scalability and fine-grained partitioning",
         fig01_motivation),
        ("fig2", "PriSM performance summary vs core count", fig02_summary),
        ("fig3", "Per-workload ANTT: PriSM-H vs UCP vs PIPP", fig03_percore),
        ("fig4", "Cache occupancy: PriSM-H vs UCP (quad)", fig04_occupancy),
        ("fig5", "Same policy, PriSM vs way-partitioning (16-core)", fig05_vs_waypart),
        ("fig6", "16 cores on a 16-way cache", fig06_cores_eq_ways),
        ("fig7", "PriSM vs Vantage (ANTT)", fig07_vantage),
        ("fig8", "Per-benchmark misses, PriSM vs Vantage (quad)", fig08_vantage_misses),
        ("fig9", "Fairness: LRU vs way-partitioning vs PriSM-F (16-core)",
         fig09_fairness),
        ("fig10", "PriSM-Q: 80% stand-alone-IPC guarantee for core 0", fig10_qos),
        ("fig11", "Eviction-probability stability (quad)", fig11_evprob),
        ("fig12", "K-bit probability representation", fig12_kbit),
        ("fig13", "Victim-not-found rate vs interval length", fig13_victim_notfound),
        ("sec56", "PriSM over DIP replacement", sec56_dip),
        ("tenants", "Multi-tenant web cache: per-tenant SLO scorecard", multi_tenant),
        ("headroom", "Miss gap to the offline Belady/MIN optimum", fig_headroom),
        ("scaleout", "Many-core scale-out: cluster-granular PriSM", scaleout),
    ]
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by id.

    Raises:
        KeyError: listing the known ids.
    """
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def paper_grid(
    ids: Sequence[str], budget: Dict[str, dict]
) -> Dict[MachineConfig, List[RunSpec]]:
    """The selected experiments' runs, grouped by machine.

    Args:
        ids: experiment ids.
        budget: experiment id -> its keyword arguments (a
            ``repro.experiments.report.BUDGETS`` entry); missing ids use
            the defaults.

    Returns:
        ``machine -> specs`` in first-appearance order. Specs repeated
        across figures stay listed; ``run_specs`` and campaigns run each
        fingerprint once.
    """
    return _by_machine([(get_experiment(i), budget.get(i, {})) for i in ids])
