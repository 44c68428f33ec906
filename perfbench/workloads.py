"""The benchmark's workloads: which ops each one runs, built from a seed.

An op is a plain dict, so it can be sent to a child interpreter as JSON:

* ``{"kind": "cli", "argv": [...]}`` calls ``wreathcells.cli.cli_main`` exactly
  as one ``wreathcells ... --format json`` invocation would;
* ``{"kind": "sweep", "argv": [...]}`` calls ``main`` of
  ``scripts/sweep_conjecture.py``;
* ``{"kind": "api", "call": name, ...}`` calls library functions directly
  (see ``child.py`` for the calls).

Each op slot that varies with the seed draws a common integer shift of the
charges from ``SHIFTS``.  A common shift leaves ``d``, ``n`` and the size of
every intermediate unchanged, so every seed does the same amount of work on
different inputs.  Seed 0 is the unshifted points.  Every op any seed can produce has a committed digest in
``expected.json`` (see ``make_expected.py``).
"""

from __future__ import annotations

import random

SHIFTS = (0, 1, 2, 3)
GAUDIN_SCALES = (1, -1, 2, -2)  # indexed by the drawn shift
SIZES = ("full", "tiny")


def _r(charges, shift):
    return ",".join(str(c + shift) for c in charges)


def _cli(*argv):
    return {"kind": "cli", "argv": [str(a) for a in argv] + ["--format", "json"]}


def _check_cold(size, s):
    n8, n7, n5 = (8, 7, 5) if size == "full" else (3, 3, 2)
    return [
        _cli("check", f"--r={_r((1, 0), s[0])}", "--c0", "1", "--n", n8),
        _cli("check", f"--r={_r((1, 1, 0), s[1])}", "--c0", "1", "--n", n7),
        _cli("check", f"--r={_r((1, 1, 0, 0), s[2])}", "--c0", "1", "--n", n5),
        _cli("check", f"--r={_r((2, 0), s[3])}", "--c0=-1/2", "--n", n7),
        # The listing op, with the parameters of the first op: k = -c0 * r.
        _cli("jm-cells", "--c0", "1", f"--k={-1 - s[0]},{-s[0]}", "--n", n8),
    ]


def _sweep(size, s):
    max_d, max_n = (3, 5) if size == "full" else (2, 3)
    argv = ["--max-d", str(max_d), "--max-n", str(max_n), "--jobs", "1"]
    return [{"kind": "sweep", "argv": argv}]


def _fock_deep(size, s):
    n10, n8, n11, n7 = (10, 8, 11, 7) if size == "full" else (3, 3, 4, 3)
    return [
        _cli("canonical-basis", f"--r={_r((1, 1, 0), s[0])}", "--n", n10),
        _cli("lm-cells", f"--r={_r((1, 1, 0, 0), s[1])}", "--n", n8),
        _cli("canonical-basis", f"--r={_r((0, 0, 0), s[2])}", "--n", n8),
        _cli("lm-cells", f"--r={_r((1, 0), s[3])}", "--n", n11),
        {
            "kind": "api",
            "call": "canonical_basis",
            "charges": [c + s[4] for c in (1, 1, 0, 0)],
            "n": n7,
            "reverse_ties": True,
        },
    ]


def _gaudin(size, s):
    # gd12's cost depends on which parameters are zero, which a shift would
    # change, so these slots scale c0 and every ksharp instead, by factors of
    # nearly equal arithmetic cost.
    scale = [GAUDIN_SCALES[v] for v in s]
    max_d, frac_d, listing_d = (10, 6, 8) if size == "full" else (3, 3, 2)
    return [
        {"kind": "api", "call": "gaudin_battery", "max_d": max_d, "scale": scale[0]},
        {"kind": "api", "call": "frac_identity", "max_d": frac_d},
        _cli("gaudin-verify", f"--r={_r((0,) * listing_d, 0)}", f"--c0={scale[1]}"),
    ]


# name -> (ops builder, number of seeded slots, index of the listing op)
WORKLOADS = {
    "check-cold": (_check_cold, 4, 4),
    "sweep": (_sweep, 0, 0),
    "fock-deep": (_fock_deep, 5, 0),
    "gaudin": (_gaudin, 2, 2),
}

# Workloads whose ops each run in their own fresh interpreter; the others run
# all ops of a pass in one interpreter, sharing its warm caches.
ONE_PROCESS_PER_OP = {"check-cold"}


def shifts_for(name: str, seed: int) -> tuple[int, ...]:
    slots = WORKLOADS[name][1]
    if seed == 0:
        return (0,) * slots
    rng = random.Random(f"{name}:{seed}")
    return tuple(rng.choice(SHIFTS) for _ in range(slots))


def build_ops(name: str, seed: int, size: str = "full") -> list[dict]:
    builder, _, _ = WORKLOADS[name]
    return builder(size, shifts_for(name, seed))


def listing_index(name: str) -> int:
    return WORKLOADS[name][2]


def pool_ops(name: str, size: str) -> list[dict]:
    """Every distinct op that any seed can produce for this workload."""
    builder, slots, _ = WORKLOADS[name]
    ops = {}
    for shift in SHIFTS:
        for op in builder(size, (shift,) * slots):
            ops[op_id(op)] = op
    return list(ops.values())


def op_id(op: dict) -> str:
    """Stable key of an op, used to look up its expected digest."""
    if op["kind"] in ("cli", "sweep"):
        return op["kind"] + " " + " ".join(op["argv"])
    args = " ".join(f"{k}={op[k]}" for k in sorted(op) if k not in ("kind", "call"))
    return f"api {op['call']} {args}"
