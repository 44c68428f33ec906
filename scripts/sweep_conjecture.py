#!/usr/bin/env python3
"""Sweep the character-set comparison over a battery of parameter points.

Each point is a charge vector with a value of n; the two character sets are
computed independently and compared.  The points of one charge vector share
their work: one JM graph and one canonical basis, built to its largest n,
serve every n (``check_conjecture_sizes``).  Charge vectors are independent
pure computations, so with ``--jobs`` above 1 they are fanned out over a
process pool of at most one worker per charge vector; output order always
follows input order.  The pool, and the import of ``concurrent.futures``
behind it, exist only then: a serial run starts no process and loads no
``multiprocessing``.

Usage:
    python scripts/sweep_conjecture.py                 # built-in battery
    python scripts/sweep_conjecture.py --max-d 3 --max-n 3 --jobs 4

Exits 1 on hard failures, 2 on usage errors or a stdout that cannot be written,
3 on an internal error (its traceback and an `internal error: …` line go to
stderr), so exit 1 never hides a crash.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from wreathcells import check_conjecture_sizes, params_from_r
from wreathcells.cli import _internal_error

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
    each, on at most ``jobs`` processes, never more than there are tasks, and
    in this process when that is one.  Each verdict is cut to its row as it
    arrives, so no more than one charge vector's characters are held.
    """
    groups = [
        (params_from_r(r, 1), [n for _, n in group])
        for r, group in itertools.groupby(points, key=lambda point: point[0])
    ]
    params, sizes = [p for p, _ in groups], [ns for _, ns in groups]

    def rows(verdict_lists):
        return [
            (v.charges, v.n, v.mode, v.equal, len(v.cm_ids), len(v.lm_ids))
            for verdicts in verdict_lists
            for v in verdicts
        ]

    workers = min(jobs, len(groups))
    if workers < 2:
        return rows(map(check_conjecture_sizes, params, sizes))
    # imported here alone: it loads multiprocessing, pickle and socket, which
    # a serial run never uses
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        return rows(pool.map(check_conjecture_sizes, params, sizes))


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

    header = f"{'charges':>16}  {'n':>2}  {'mode':>14}  {'equal':>5}  {'#cm':>4}  {'#lm':>4}"
    try:
        # sent before the battery is checked, so `| head -n 1` has gone by the rows
        print(header, "-" * len(header), sep="\n", flush=True)
    except OSError as exc:
        return stdout_failed(exc)
    points = built_in_battery(args.max_d, args.max_n, args.max_charge)
    try:
        results = check_battery(points, args.jobs)
    except Exception as exc:
        return _internal_error(exc)
    failures = 0
    try:
        for r, n, mode, equal, ncm, nlm in results:
            print(
                f"{','.join(map(str, r)):>16}  {n:>2}  {mode:>14}  "
                f"{str(equal):>5}  {ncm:>4}  {nlm:>4}"
            )
            failures += not equal and mode != "jm-upper-bound"
        print(f"\n{len(results)} points, {failures} hard failures", flush=True)
    except OSError as exc:
        return stdout_failed(exc)
    return 1 if failures else 0


def stdout_failed(exc: OSError) -> int:
    """Exit 2 for a stdout that cannot be written (its reader has gone); it
    is pointed at os.devnull, so the interpreter's last flush passes."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
