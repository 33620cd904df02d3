"""Markdown report generator: regenerate the evaluation and write it up.

Runs the experiment registry at a chosen budget and writes a single
markdown file pairing each figure's paper claims
(:mod:`repro.experiments.paper_values`) with the freshly measured tables —
the artifact to attach to a reproduction review. The selected figures'
runs are pooled first (:func:`~repro.experiments.registry.run_experiments`),
so a run that several figures share simulates once.

Usage (module CLI)::

    python -m repro.experiments.report --budget quick -o results.md
    python -m repro.experiments.report --only fig7 fig9 -o vantage.md
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.paper_values import claims_for
from repro.experiments.registry import EXPERIMENTS, run_experiments

__all__ = ["BUDGETS", "generate_report", "render_report", "main"]

#: Per-budget kwargs for each experiment (instructions + mix subsets).
BUDGETS: Dict[str, Dict[str, dict]] = {
    "micro": {
        "fig1": {"instructions": 25_000, "mixes_per_count": 1},
        "fig2": {"instructions": 25_000, "mixes_per_count": 1, "core_counts": (4, 16)},
        "fig3": {"instructions": 25_000, "quad_mixes": ["Q7"], "big_mixes": ["T1"]},
        "fig4": {"instructions": 25_000, "mixes": ["Q7"]},
        "fig5": {"instructions": 25_000, "mixes": ["S1"]},
        "fig6": {"instructions": 25_000, "mixes": ["S1"]},
        "fig7": {"instructions": 25_000, "quad_mixes": ["Q7"], "sixteen_mixes": ["S1"]},
        "fig8": {"instructions": 25_000, "mixes": ["Q7"]},
        "fig9": {"instructions": 25_000, "mixes": ["S1"]},
        "fig10": {"instructions": 25_000, "mixes": ["S1"]},
        "fig11": {"instructions": 50_000, "mixes": ["Q7"]},
        "fig12": {"instructions": 25_000, "mixes": ["Q7"], "bit_widths": (6,)},
        "fig13": {"instructions": 50_000, "mixes": ["Q7"],
                  "interval_multipliers": (0.5, 1.0)},
        "sec56": {"instructions": 25_000, "mixes": ["Q7"]},
        "tenants": {"instructions": 30_000, "workload": "smoke4",
                    "schemes": ["lru", "cliff", "prism-h"]},
        "headroom": {"instructions": 25_000, "mixes": ["Q7"],
                     "schemes": ["lru", "prism-h"]},
        "scaleout": {"instructions": 30_000, "workloads": ["smoke4"],
                     "schemes": ["lru", "prism-h"], "clusters": 2},
    },
    "quick": {
        "fig1": {"instructions": 120_000, "mixes_per_count": 3},
        "fig2": {"instructions": 120_000, "mixes_per_count": 3},
        "fig3": {"instructions": 200_000, "quad_mixes": ["Q1", "Q5", "Q7", "Q12"],
                 "big_mixes": ["T1", "T2"]},
        "fig4": {"instructions": 200_000, "mixes": ["Q1", "Q4", "Q7"]},
        "fig5": {"instructions": 250_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig6": {"instructions": 200_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig7": {"instructions": 250_000, "quad_mixes": ["Q1", "Q7", "Q12", "Q19"],
                 "sixteen_mixes": ["S1", "S2"]},
        "fig8": {"instructions": 250_000, "mixes": ["Q1", "Q7", "Q12"]},
        "fig9": {"instructions": 200_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig10": {"instructions": 200_000, "mixes": ["S1", "S2", "S3", "S4"]},
        "fig11": {"instructions": 400_000, "mixes": ["Q1", "Q5", "Q7"]},
        "fig12": {"instructions": 250_000, "mixes": ["Q1", "Q7"]},
        "fig13": {"instructions": 400_000, "mixes": ["Q1", "Q5", "Q7"]},
        "sec56": {"instructions": 250_000, "mixes": ["Q1", "Q5", "Q7", "Q12"]},
        "tenants": {"instructions": 400_000, "workload": "smoke4"},
        "headroom": {"instructions": 150_000, "mixes": ["Q1", "Q5", "Q7", "Q12"]},
        "scaleout": {"instructions": 200_000, "workloads": ["scale16"]},
    },
    # Full budget: every mix, the machine-default instruction windows.
    "full": {},
}


def render_report(
    budget: str = "quick",
    only: Optional[List[str]] = None,
    progress=None,
    jobs: Optional[int] = None,
    store=None,
) -> str:
    """Run the selected experiments and return the markdown report.

    Args:
        budget: ``micro`` (seconds), ``quick`` (minutes) or ``full`` (hours).
        only: subset of experiment ids (default: the whole registry).
        progress: optional ``callable(str)`` for live status lines.
        jobs: worker processes for the pooled runs (see
            :func:`~repro.experiments.parallel.run_specs`).
        store: result-store directory; runs it holds are not simulated
            again, new runs persist into it.
    """
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; known: {sorted(BUDGETS)}")
    ids = only or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    plan = [(EXPERIMENTS[i], BUDGETS[budget].get(i, {})) for i in ids]
    if progress:
        progress(f"running {', '.join(ids)}")
    start = time.time()
    summaries = run_experiments(plan, jobs=jobs, store=store, progress=progress)
    elapsed = time.time() - start

    sections = [
        "# PriSM reproduction report",
        "",
        f"Budget: `{budget}`. Generated by `python -m repro.experiments.report`.",
        "Paper claims are quoted above each regenerated table; see",
        "EXPERIMENTS.md for the fidelity discussion.",
        f"*(all figures: {elapsed:.0f}s)*",
        "",
    ]
    for (experiment, _), summary in zip(plan, summaries):
        sections.append(f"## {experiment.id}: {experiment.title}")
        sections.append("")
        for claim in claims_for(experiment.id):
            sections.append(f"> **Paper:** {claim.text}")
        sections.append("")
        sections.append("```")
        sections.append(experiment.format(summary))
        sections.append("```")
        sections.append("")
    return "\n".join(sections)


def generate_report(
    output: Path,
    budget: str = "quick",
    only: Optional[List[str]] = None,
    progress=None,
    jobs: Optional[int] = None,
    store=None,
) -> Path:
    """Write :func:`render_report` (same arguments) to ``output``.

    Returns:
        The written path.
    """
    output = Path(output)
    output.write_text(render_report(budget, only, progress, jobs=jobs, store=store))
    return output


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="results.md")
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="quick")
    parser.add_argument("--only", nargs="*", default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", flush=True))
    path = generate_report(
        Path(args.output), budget=args.budget, only=args.only, progress=progress
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
