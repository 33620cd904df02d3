#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation.

Walks the experiment registry (Fig. 1-13 plus the Section 5.6 DIP study)
and prints each reproduction in paper-style rows. At the default
``--budget quick`` the suite runs in minutes on a laptop using shortened
instruction windows and mix subsets; ``--budget full`` runs every mix at
the DESIGN.md default windows (hours).

Usage::

    python examples/reproduce_paper.py                   # everything, quick
    python examples/reproduce_paper.py --only fig7 fig9  # a subset
    python examples/reproduce_paper.py --budget full
"""

import argparse
import os
import time

from repro.experiments.options import RunOptions
from repro.experiments.registry import EXPERIMENTS

#: Per-experiment quick-budget kwargs (instruction windows + mix subsets).
_QUICK = {
    "fig1": {"instructions": 150_000, "mixes_per_count": 3},
    "fig2": {"instructions": 150_000, "mixes_per_count": 3},
    "fig3": {"instructions": 200_000, "quad_mixes": ["Q1", "Q5", "Q7", "Q12"],
             "big_mixes": ["T1", "T2"]},
    "fig4": {"instructions": 200_000, "mixes": ["Q1", "Q4", "Q7"]},
    "fig5": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig6": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig7": {"instructions": 200_000, "quad_mixes": ["Q1", "Q7", "Q12", "Q19"],
             "sixteen_mixes": ["S1", "S2"]},
    "fig8": {"instructions": 200_000, "mixes": ["Q1", "Q7", "Q12"]},
    "fig9": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig10": {"instructions": 150_000, "mixes": ["S1", "S2", "S3", "S4"]},
    "fig11": {"instructions": 300_000, "mixes": ["Q1", "Q5", "Q7"]},
    "fig12": {"instructions": 200_000, "mixes": ["Q1", "Q7"]},
    "fig13": {"instructions": 300_000, "mixes": ["Q1", "Q5", "Q7"]},
    "sec56": {"instructions": 200_000, "mixes": ["Q1", "Q5", "Q7", "Q12"]},
}


def _herd_grids(experiment_id, kwargs):
    """The compare_schemes grids an experiment will run, for prefetching.

    Mirrors each figure module's call sites exactly (same machine, mixes,
    schemes, instructions, telemetry) so the prefetched fingerprints are
    the ones the figure asks for. Experiments that sweep scheme kwargs
    spec-by-spec (fig10-13) have no entry: their runs still cache into
    the store, they just are not prefetched by the herd.
    """
    from repro.experiments.common import resolve_instructions
    from repro.workloads.mixes import mixes_for_cores

    instructions = kwargs.get("instructions")
    grids = []

    def grid(cores, mixes, schemes, telemetry=False, **machine_kwargs):
        grids.append({
            "cores": cores,
            "machine_kwargs": machine_kwargs,
            "instructions": resolve_instructions(instructions, cores),
            "mixes": list(mixes),
            "schemes": list(schemes),
            "telemetry": telemetry,
        })

    def default_mixes(cores):
        mixes = mixes_for_cores(cores)
        per_count = kwargs.get("mixes_per_count")
        return mixes[:per_count] if per_count else mixes

    if experiment_id == "fig1":
        for cores in (4, 8, 16, 32):
            schemes = ["lru", "ucp", "pipp"]
            if cores <= 16:
                schemes.append("fair-waypart")
            grid(cores, default_mixes(cores), schemes)
    elif experiment_id == "fig2":
        for cores in (4, 8, 16, 32):
            schemes = ["lru", "prism-h", "ucp", "pipp"]
            if cores <= 16:
                schemes += ["prism-f", "fair-waypart"]
            grid(cores, default_mixes(cores), schemes)
    elif experiment_id == "fig3":
        schemes = ["lru", "prism-h", "ucp", "pipp"]
        grid(4, kwargs.get("quad_mixes") or mixes_for_cores(4), schemes)
        grid(32, kwargs.get("big_mixes") or mixes_for_cores(32), schemes)
    elif experiment_id == "fig4":
        grid(4, kwargs.get("mixes") or mixes_for_cores(4),
             ["prism-h", "ucp"], telemetry=True)
    elif experiment_id == "fig5":
        grid(16, kwargs.get("mixes") or mixes_for_cores(16),
             ["lru", "prism-h", "waypart-hitmax"])
    elif experiment_id == "fig6":
        grid(16, kwargs.get("mixes") or mixes_for_cores(16),
             ["lru", "prism-h"], assoc=16, llc_bytes=8 << 20)
    elif experiment_id == "fig7":
        schemes = ["tslru", "vantage", "prism-ucpx"]
        grid(4, kwargs.get("quad_mixes") or mixes_for_cores(4), schemes)
        grid(16, kwargs.get("sixteen_mixes") or mixes_for_cores(16), schemes)
    elif experiment_id == "fig8":
        grid(4, kwargs.get("mixes") or mixes_for_cores(4),
             ["vantage", "prism-ucpx"])
    elif experiment_id == "fig9":
        grid(16, kwargs.get("mixes") or mixes_for_cores(16),
             ["lru", "fair-waypart", "prism-f"])
    elif experiment_id == "sec56":
        grid(4, kwargs.get("mixes") or mixes_for_cores(4),
             ["dip", "prism-h-dip", "tadip", "lru"])
    return grids


def _herd_prefill(ids, budget, store, workers, progress) -> None:
    """Fan the selected experiments' grids over a local herd into the store.

    Groups specs by machine config (a campaign binds one machine), then
    runs each group through :class:`repro.herd.HerdController` with
    ``workers`` local worker processes. The figure loop that follows
    answers from the store, so it only simulates whatever the herd did
    not cover (grids without a ``_herd_grids`` entry).
    """
    import json

    from repro.campaign import Campaign
    from repro.campaign.store import machine_to_dict
    from repro.experiments.configs import machine
    from repro.experiments.parallel import RunSpec
    from repro.herd import HerdController, LocalTransport

    groups = {}  # machine payload -> (config, {spec-key: RunSpec})
    for experiment_id in ids:
        kwargs = dict(_QUICK.get(experiment_id, {})) if budget == "quick" else {}
        for g in _herd_grids(experiment_id, kwargs):
            config = machine(g["cores"], **g["machine_kwargs"])
            key = json.dumps(machine_to_dict(config), sort_keys=True)
            _, specs = groups.setdefault(key, (config, {}))
            for mix in g["mixes"]:
                for scheme in g["schemes"]:
                    spec = RunSpec(
                        mix=mix, scheme=scheme, seed=0,
                        instructions=g["instructions"],
                        telemetry=g["telemetry"],
                    )
                    specs[(mix, scheme, g["instructions"], g["telemetry"])] = spec
    total = sum(len(specs) for _, specs in groups.values())
    print(f"herd prefill: {total} specs over {len(groups)} machine config(s), "
          f"{workers} local workers -> {store}")
    for config, specs in groups.values():
        campaign = Campaign(store, config, list(specs.values()))
        controller = HerdController(
            campaign,
            transport=LocalTransport(),
            workers=workers,
            progress=progress,
        )
        run = controller.run_with_sigint_drain()
        print(f"  [{config.num_cores}-core machine] {run.describe()}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", nargs="*", default=None,
                        help=f"experiment ids to run (default: all of {sorted(EXPERIMENTS)})")
    parser.add_argument("--budget", choices=["quick", "full"], default="quick")
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
                        "experiments' scheme grids over N local herd "
                        "workers before the figures render (requires "
                        "--store; see docs/campaigns.md)")
    args = parser.parse_args()
    if args.herd is not None and args.store is None:
        parser.error("--herd requires --store")

    if args.jobs is not None:
        # The figure modules fan out via compare_schemes, which consults
        # REPRO_JOBS whenever no explicit jobs= is passed.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.store is not None:
        # Same trick for the result store: run_specs resolves REPRO_STORE
        # at fan-out time and skips fingerprints it already holds.
        os.environ["REPRO_STORE"] = args.store
    ids = args.only or list(EXPERIMENTS)
    progress = (lambda msg: print(f"    {msg}", flush=True)) if args.verbose else None
    if args.herd:
        _herd_prefill(ids, args.budget, args.store, args.herd, progress)
    for experiment_id in ids:
        experiment = EXPERIMENTS[experiment_id]
        kwargs = dict(_QUICK.get(experiment_id, {})) if args.budget == "quick" else {}
        options = RunOptions(
            instructions=kwargs.pop("instructions", None), progress=progress
        )
        print("=" * 78)
        print(f"[{experiment.id}] {experiment.title}")
        print("=" * 78)
        start = time.time()
        result = experiment.run(options=options, **kwargs)
        print(experiment.format(result))
        print(f"({time.time() - start:.0f}s)\n")


if __name__ == "__main__":
    main()
