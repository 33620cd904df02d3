"""`repro-sim check` subcommand handlers.

Parser wiring lives in :mod:`repro.cli`; this module holds the handlers so
the reference simulator only imports when a check command actually runs.
"""

from __future__ import annotations

import argparse
import time

__all__ = ["cmd_check", "cmd_check_fuzz"]


def cmd_check_fuzz(args) -> int:
    from repro.check.differential import fuzz
    from repro.check.reference import REFERENCE_SCHEMES

    schemes = args.schemes or None
    if schemes:
        unknown = sorted(set(schemes) - set(REFERENCE_SCHEMES))
        if unknown:
            raise SystemExit(
                f"no reference simulator for {unknown} "
                f"(supported: {sorted(REFERENCE_SCHEMES)})"
            )
    sharing = getattr(args, "sharing", False)
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", flush=True))
    start = time.time()
    results = fuzz(
        cases=args.cases,
        seed=args.seed,
        schemes=schemes,
        progress=progress,
        sharing=sharing,
    )
    elapsed = time.time() - start

    bad = [r for r in results if not r.ok]
    accesses = sum(r.accesses_run for r in results)
    intervals = sum(r.intervals for r in results)
    by_scheme = {}
    for r in results:
        by_scheme[r.case.scheme] = by_scheme.get(r.case.scheme, 0) + 1
    coverage = ", ".join(f"{s}={n}" for s, n in sorted(by_scheme.items()))
    shared_cases = sum(
        1
        for r in results
        if r.case.track_sharers or r.case.sharing_degree or r.case.core_map
    )
    print(
        f"{len(results)} cases ({coverage}), {accesses} accesses, "
        f"{intervals} interval boundaries compared in {elapsed:.1f}s"
        + (f" [sharing axes on ({shared_cases} cases)]" if sharing else "")
    )
    if not bad:
        print("engine and reference agree on every case, per access and batched")
        return 0
    print(f"{len(bad)} DIVERGENT case{'s' if len(bad) != 1 else ''}:")
    for result in bad:
        case = result.case
        print(
            f"  scheme={case.scheme} cores={case.num_cores} "
            f"sets={case.num_sets} assoc={case.assoc} seed={case.seed} "
            f"accesses={case.accesses} kwargs={case.scheme_kwargs} "
            f"sharing={case.sharing}/deg={case.sharing_degree} "
            f"track={case.track_sharers} core_map={case.core_map}"
        )
        for divergence in result.divergences:
            print(f"    {divergence}")
    return 1


_HANDLERS = {
    "fuzz": cmd_check_fuzz,
}


def cmd_check(args: argparse.Namespace) -> int:
    return _HANDLERS[args.check_command](args)
