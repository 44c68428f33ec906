#!/usr/bin/env python3
"""Sweep the character-set comparison over a battery of parameter points.

Each point is a charge vector with a value of n; the two character sets are
computed independently and compared.  Points are independent pure
computations, so they can be fanned out over processes; output order always
follows input order.

Usage:
    python scripts/sweep_conjecture.py                 # built-in battery
    python scripts/sweep_conjecture.py --max-d 3 --max-n 3 --jobs 4
"""

from __future__ import annotations

import argparse
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor

from wreathcells import check_conjecture, params_from_r


def charge_vectors(d: int, max_charge: int):
    """Weakly decreasing charge vectors with entries in 0..max_charge, r_d = 0."""
    for combo in itertools.combinations_with_replacement(
        range(max_charge, -1, -1), d - 1
    ):
        yield tuple(sorted(combo, reverse=True)) + (0,) if d > 1 else (0,)


def built_in_battery(max_d: int, max_n: int, max_charge: int):
    points = []
    for d in range(1, max_d + 1):
        for r in sorted(set(charge_vectors(d, max_charge)), reverse=True):
            for n in range(2, max_n + 1):
                points.append((r, n))
    return points


def run_point(point):
    r, n = point
    verdict = check_conjecture(params_from_r(r, 1), n)
    return (
        r,
        n,
        verdict.mode,
        verdict.equal,
        len(verdict.cm_counts),
        len(verdict.lm_counts),
    )


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
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_point, points))
    else:
        results = [run_point(p) for p in points]

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
