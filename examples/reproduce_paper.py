#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Prints the markdown report of :mod:`repro.experiments.report` (Fig. 1-13,
the Section 5.6 DIP study and the tenant, headroom and scale-out
studies) at one of its budgets: ``micro`` (seconds), ``quick`` (minutes,
the default) or ``full`` (every mix at the DESIGN.md default windows;
hours). The selected figures' runs are pooled, so a run several figures
share simulates once.

Usage::

    python examples/reproduce_paper.py                   # everything, quick
    python examples/reproduce_paper.py --only fig7 fig9  # a subset
    python examples/reproduce_paper.py --budget full
    python examples/reproduce_paper.py --store out/p --herd 4
"""

import argparse

from repro.experiments.registry import EXPERIMENTS, paper_grid
from repro.experiments.report import BUDGETS, render_report


def _herd_prefill(ids, budget, store, workers, progress) -> None:
    """Fan the selected experiments' runs over a local herd into ``store``.

    One campaign per machine of :func:`paper_grid` (a campaign binds one
    machine), each run by a :class:`repro.herd.HerdController` with
    ``workers`` local worker processes. The report that follows answers
    every run from the store.
    """
    from repro.campaign import Campaign
    from repro.herd import HerdController, LocalTransport

    grid = paper_grid(ids, BUDGETS[budget])
    total = sum(len(specs) for specs in grid.values())
    print(f"herd prefill: {total} specs over {len(grid)} machine config(s), "
          f"{workers} local workers -> {store}")
    for config, specs in grid.items():
        campaign = Campaign(store, config, specs)
        controller = HerdController(
            campaign,
            transport=LocalTransport(),
            workers=workers,
            progress=progress,
        )
        run = controller.run_with_sigint_drain()
        print(f"  [{config}] {run.describe()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", nargs="*", default=None,
                        help=f"experiment ids to run (default: all of {sorted(EXPERIMENTS)})")
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="quick")
    parser.add_argument("--verbose", action="store_true", help="print per-run progress")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for independent runs "
                        "(0 = all CPUs; default: serial or REPRO_JOBS)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result-store directory: completed runs are "
                        "cached there, so re-running the suite only "
                        "simulates what changed (see docs/campaigns.md)")
    parser.add_argument("--herd", type=int, default=None, metavar="N",
                        help="prefill --store by fanning the selected "
                        "experiments' runs over N local herd workers "
                        "before the report renders (requires --store; "
                        "see docs/campaigns.md)")
    args = parser.parse_args()
    if args.herd is not None and args.store is None:
        parser.error("--herd requires --store")

    ids = args.only or list(EXPERIMENTS)
    progress = (lambda msg: print(f"    {msg}", flush=True)) if args.verbose else None
    if args.herd:
        _herd_prefill(ids, args.budget, args.store, args.herd, progress)
    print(render_report(
        args.budget, ids, progress, jobs=args.jobs, store=args.store
    ))


if __name__ == "__main__":
    main()
