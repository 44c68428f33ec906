#!/usr/bin/env python3
"""Sweep the character-set comparison over a battery of parameter points.

Each point is a charge vector with a value of n; the two character sets are
computed independently and compared.  The points of one charge vector share
their work: one JM graph and one canonical basis, built to its largest n,
serve every n (``check_conjecture_sizes``).  Charge vectors are independent
pure computations, so they can be fanned out over processes; output order
always follows input order.

Usage:
    python scripts/sweep_conjecture.py                 # built-in battery
    python scripts/sweep_conjecture.py --max-d 3 --max-n 3 --jobs 4
"""

from __future__ import annotations

import argparse
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from wreathcells import check_conjecture_sizes, params_from_r

# Not called here, but perfbench/tracing.py wraps the name in this module, so
# it stays imported.
from wreathcells import check_conjecture  # noqa: F401


def charge_vectors(d: int, max_charge: int):
    """Weakly decreasing charge vectors with entries in 0..max_charge, r_d = 0,
    in decreasing lexicographic order."""
    for combo in itertools.combinations_with_replacement(
        range(max_charge, -1, -1), d - 1
    ):
        yield combo + (0,)


def built_in_battery(max_d: int, max_n: int, max_charge: int):
    points = []
    for d in range(1, max_d + 1):
        for r in charge_vectors(d, max_charge):
            for n in range(2, max_n + 1):
                points.append((r, n))
    return points


def check_battery(points, jobs: int = 1):
    """The row (r, n, mode, equal, #cm, #lm) of every (r, n) point, in order.

    Consecutive points of one charge vector are checked together, one task
    each, on ``jobs`` processes.  Each verdict is cut to its row as it
    arrives, so no more than one charge vector's characters are held.
    """
    groups = [
        (params_from_r(r, 1), [n for _, n in group])
        for r, group in itertools.groupby(points, key=lambda point: point[0])
    ]
    params, sizes = [p for p, _ in groups], [ns for _, ns in groups]
    with ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool:
        mapped = (pool.map if pool else map)(check_conjecture_sizes, params, sizes)
        return [
            (v.charges, v.n, v.mode, v.equal, len(v.cm_counts), len(v.lm_counts))
            for verdicts in mapped
            for v in verdicts
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--max-charge", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    for flag, value, least in (
        ("--max-d", args.max_d, 1),
        ("--max-n", args.max_n, 2),
        ("--max-charge", args.max_charge, 0),
        ("--jobs", args.jobs, 1),
    ):
        if value < least:
            parser.error(f"{flag} must be at least {least}, got {value}")

    points = built_in_battery(args.max_d, args.max_n, args.max_charge)
    results = check_battery(points, args.jobs)

    header = f"{'charges':>16}  {'n':>2}  {'mode':>14}  {'equal':>5}  {'#cm':>4}  {'#lm':>4}"
    print(header)
    print("-" * len(header))
    failures = 0
    for r, n, mode, equal, ncm, nlm in results:
        print(
            f"{','.join(map(str, r)):>16}  {n:>2}  {mode:>14}  "
            f"{str(equal):>5}  {ncm:>4}  {nlm:>4}"
        )
        if not equal and mode != "jm-upper-bound":
            failures += 1
    print(f"\n{len(results)} points, {failures} hard failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
