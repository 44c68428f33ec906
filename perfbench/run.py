#!/usr/bin/env python3
"""Benchmark of the wreathcells pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload check-cold --seed 0 --seconds 20 --trace 0

Runs whole passes over the workload's ops until at least ``--seconds`` have
been measured, one child interpreter at a time, and checks every op's exit
code and output digest against ``perfbench/expected.json``.  Times are
normalised by a host-speed probe run around and during every op
(``NOMINAL_PROBE_S``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 when every check passed, 1 when one failed
and 2 when the checkout cannot be benchmarked.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

EXPECTED = HERE / "expected.json"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 15
# Every reported time is normalised to a host on which child.probe_s() takes
# this long (its median on the 2-vCPU VM where the baseline was recorded).
# That host's speed drifts by up to a factor of about two over seconds to
# minutes, also within one op; the probes, taken around each op and on a
# timer during it, move with it, so normalised times stay steady while real
# ones do not.  The summary also prints the real wall time.
NOMINAL_PROBE_S = 0.0025
# Set-up is mostly interpreter start and imports, which the loop probe does
# not model.  So each set-up sample is normalised by a bare interpreter started
# just before it, which imports the stdlib modules that wreathcells imports;
# it takes NOMINAL_STARTUP_S on the same host.
NOMINAL_STARTUP_S = 0.06
STARTUP_PROBE = (
    "import argparse, dataclasses, fractions, functools, itertools, json, re, time, "
    "typing, warnings; print(time.monotonic_ns())"
)

# Per-layer metrics that must repeat exactly between traced passes: every one
# that is not a time.
TIME_SUFFIXES = (".s", "_s")


class ChildFailed(RuntimeError):
    """A child interpreter crashed, timed out or printed no report."""


def _interpreter(*args: str, stdin: str = "") -> str:
    """Run a fresh interpreter with args; return the last line it printed."""
    # The same hash seed every time, and bytecode cached under .bench_build
    # whatever the caller's environment says, so set-up measures an import
    # from bytecode, as an installed package does.
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    pycache = ROOT / ".bench_build" / "pycache"
    try:
        proc = subprocess.run(
            [sys.executable, "-X", f"pycache_prefix={pycache}", *args],
            input=stdin,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"child exited with {proc.returncode}: {tail[0]}")
    return lines[-1]


def spawn(ops, *, trace=False, setup_only=False) -> dict:
    """Run ops in a fresh interpreter and return its report."""
    request = {"ops": ops, "trace": trace, "setup_only": setup_only}
    request["t0_ns"] = time.monotonic_ns()
    return json.loads(_interpreter(str(HERE / "child.py"), stdin=json.dumps(request)))


def setup_sample(ops) -> float:
    """One normalised set-up time: a bare interpreter, then a set-up-only child."""
    t0_ns = time.monotonic_ns()
    bare_s = (int(_interpreter("-c", STARTUP_PROBE)) - t0_ns) / 1e9
    return spawn(ops[:1], setup_only=True)["setup_s"] * NOMINAL_STARTUP_S / bare_s


def speed(readings: list[float]) -> float:
    """Mean host speed over probe readings, relative to nominal.

    A time multiplied by this is the time the same work takes on the nominal
    host.  Mean speed, not median time: the work done in an interval is the
    integral of the speed over it.
    """
    return statistics.fmean(NOMINAL_PROBE_S / p for p in readings)


def op_speed(before: list[float], during: list[float], after: list[float]) -> float:
    """Mean speed over an op: its timer readings and the slots at its edges.

    The timer readings are evenly spaced in time.  Each slot is a burst of
    readings at one instant, so it counts as one sample, which also gives an
    op shorter than the timer interval two samples.
    """
    return statistics.fmean([speed(before), *(NOMINAL_PROBE_S / p for p in during), speed(after)])


def _merge_trace(total: dict | None, part: dict, factor: float) -> dict:
    """Add one child's trace to the pass total, span times scaled by factor."""
    if total is None:
        total = {"spans": {}, "counts": {}, "peaks": {}, "cache": dict(part["cache"])}
    else:
        cache = total["cache"]
        cache["hits"] += part["cache"]["hits"]
        cache["misses"] += part["cache"]["misses"]
        cache["currsize"] = max(cache["currsize"], part["cache"]["currsize"])
    for name, (t, s, calls) in part["spans"].items():
        rec = total["spans"].setdefault(name, [0.0, 0.0, 0])
        rec[0] += t * factor
        rec[1] += s * factor
        rec[2] += calls
    for name, value in part["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + value
    for name, value in part["peaks"].items():
        total["peaks"][name] = max(total["peaks"].get(name, 0), value)
    return total


def run_pass(name: str, ops: list[dict], expected: dict, *, trace: bool) -> dict:
    """One pass over the ops; returns times, failures and the merged trace."""
    if name in workloads.ONE_PROCESS_PER_OP:
        groups = [[op] for op in ops]
    else:
        groups = [ops]
    times, raw, rss, failures = [], [], [], []
    merged = None
    for group in groups:
        try:
            report = spawn(group, trace=trace)
        except ChildFailed as exc:
            failures.extend(f"{workloads.op_id(op)}: {exc}" for op in group)
            times.extend(float("nan") for _ in group)
            raw.extend(float("nan") for _ in group)
            continue
        slots = report["slots"]
        rss.append(report["rss_mb"])
        norm_s = raw_s = 0.0
        for k, (op, result) in enumerate(zip(group, report["ops"])):
            seconds = result["seconds"]
            times.append(seconds * op_speed(slots[k], result["probes"], slots[k + 1]))
            raw.append(seconds)
            norm_s, raw_s = norm_s + times[-1], raw_s + seconds
            want = expected.get(workloads.op_id(op))
            if result["error"]:
                failures.append(f"{workloads.op_id(op)}: raised {result['error']}")
            elif want is None:
                failures.append(f"{workloads.op_id(op)}: no expected digest")
            elif (result["exit"], result["sha256"]) != (want["exit"], want["sha256"]):
                failures.append(
                    f"{workloads.op_id(op)}: exit {result['exit']} sha256 "
                    f"{result['sha256'][:12]}, expected exit {want['exit']} "
                    f"sha256 {want['sha256'][:12]}"
                )
        if trace:  # spans scaled by the child's time-weighted speed
            merged = _merge_trace(merged, report["trace"], _ratio(norm_s, raw_s) or speed(slots[0]))
    return {
        "wall_s": sum(times),
        "raw_wall_s": sum(raw),
        "listing_s": times[workloads.listing_index(name)],
        "peak_rss_mb": max(rss, default=float("nan")),
        "failures": failures,
        "ops": len(ops),
        "trace": merged,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its merged trace."""
    spans, counts, cache = agg["spans"], agg["counts"], agg["cache"]

    def total(name):
        return spans.get(name, [0.0, 0.0, 0])[0]

    def self_s(name):
        return spans.get(name, [0.0, 0.0, 0])[1]

    def calls(name):
        return spans.get(name, [0.0, 0.0, 0])[2]

    jm = "jucys_murphy.jm_cellular_characters"
    lookups = cache["hits"] + cache["misses"]
    return {
        "cli.self_s": self_s("cli.cli_main"),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "conjecture.check_conjecture.s": total("conjecture.check_conjecture"),
        "conjecture.check_conjecture.self_s": self_s("conjecture.check_conjecture"),
        f"{jm}.s": total(jm),
        f"{jm}.self_s": self_s(jm),
        f"{jm}.calls": calls(jm),
        "jucys_murphy.tableau_spectrum.calls": counts.get("jucys_murphy.tableau_spectrum.calls", 0),
        "jucys_murphy.cells": counts.get("jucys_murphy.cells", 0),
        "jucys_murphy.tableaux_per_cell": _ratio(
            counts.get("jucys_murphy.tableau_spectrum.calls", 0),
            counts.get("jucys_murphy.cells", 0),
        ),
        "combinatorics.standard_tableaux.s": total("combinatorics.standard_tableaux"),
        "combinatorics.standard_tableaux.hit_ratio": _ratio(cache["hits"], lookups),
        "combinatorics.standard_tableaux.cached": cache["currsize"],
        "combinatorics.enumerate_dpartitions.s": total("combinatorics.enumerate_dpartitions"),
        "fock.enumerate_standard_symbols.s": total("fock.enumerate_standard_symbols"),
        "fock.symbols": counts.get("fock.symbols", 0),
        "fock.crystal_f.calls": counts.get("fock.crystal_f.calls", 0),
        "fock.crystal_f.useful_ratio": _ratio(
            counts.get("fock.crystal_f.useful", 0), counts.get("fock.crystal_f.calls", 0)
        ),
        "fock.intermediate_A.s": total("fock.intermediate_A"),
        "fock.intermediate_A.calls": calls("fock.intermediate_A"),
        "fock.divided_power_f.calls": counts.get("fock.divided_power_f.calls", 0),
        "fock.divided_power_f.per_symbol": _ratio(
            counts.get("fock.divided_power_f.calls", 0), calls("fock.intermediate_A")
        ),
        "fock.f_action.calls": counts.get("fock.f_action.calls", 0),
        "fock.correction.self_s": self_s("fock.canonical_basis"),
        "fock.correction.steps": counts.get("fock.correction.steps", 0),
        "fock.lm_constructible.s": total("fock.lm_constructible"),
        "fock.max_support": agg["peaks"].get("fock.max_support", 0),
        "laurent.mul.calls": counts.get("laurent.mul.calls", 0),
        "laurent.add.calls": counts.get("laurent.add.calls", 0),
        "laurent.exact_div.calls": counts.get("laurent.exact_div.calls", 0),
        "gd12.verify_gaudin_eigensystem.s": total("gd12.verify_gaudin_eigensystem"),
        "gd12.verify_gaudin_eigensystem.calls": calls("gd12.verify_gaudin_eigensystem"),
        "gd12.gaudin_matrices.s": total("gd12.gaudin_matrices"),
        "gd12.xypoly_mul.calls": counts.get("gd12.xypoly_mul.calls", 0),
        "gd12.cyclo_mul.calls": counts.get("gd12.cyclo_mul.calls", 0),
        "gd12.verify_frac_identity.s": total("gd12.verify_frac_identity"),
        "gd12.cm_cells_n2.s": total("gd12.cm_cells_n2"),
    }


def self_shares(agg: dict, wall_s: float) -> dict[str, float]:
    """Share of the traced wall time spent in each layer's own code."""
    shares: dict[str, float] = {}
    for name, (_, own, _) in agg["spans"].items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + _ratio(own, wall_s)
    shares["untimed"] = 1.0 - sum(shares.values())
    return shares


def _is_time(name: str) -> bool:
    return name.endswith(TIME_SUFFIXES)


def run(name, seed, seconds, trace, *, size="full", expected=None) -> dict:
    """Run one workload; returns the result object plus a human summary."""
    if expected is None:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    ops = workloads.build_ops(name, seed, size)
    spawn(ops[:1], setup_only=True)  # fills the bytecode cache; not measured
    setups = [] if trace else [setup_sample(ops) for _ in range(SETUP_SAMPLES)]

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        # A traced run makes passes untraced, traced, traced, then alternates,
        # so that trace.overhead compares passes made under the same conditions.
        use_trace = trace and bool(untraced) and len(traced) <= len(untraced)
        (traced if use_trace else untraced).append(run_pass(name, ops, expected, trace=use_trace))
        done = time.perf_counter() - start >= seconds
        if done and (not trace or (untraced and len(traced) >= 2)):
            break

    passes = untraced + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    lines = [
        f"workload {name} seed {seed} shifts {workloads.shifts_for(name, seed)}: "
        f"{len(untraced)} untraced and {len(traced)} traced passes of {len(ops)} ops"
    ]

    def med(key, group):
        return statistics.median(p[key] for p in group)

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "wall_s": (med("wall_s", untraced), "s", len(untraced)),
            "listing_s": (med("listing_s", untraced), "s", len(untraced)),
            "peak_rss_mb": (med("peak_rss_mb", untraced), "MB", len(untraced)),
        }
    else:
        per_pass = [layer_metrics(p["trace"]) for p in traced if p["trace"]]
        metrics = {}
        if per_pass:
            for key in per_pass[0]:
                values = [m[key] for m in per_pass]
                if not _is_time(key) and len(set(values)) != 1:
                    failures.append(f"count {key} differs between traced passes: {values}")
                unit = "s" if _is_time(key) else _unit(key)
                metrics[key] = (statistics.median(values), unit, len(values))
            attempted += 1
            if name in ("fock-deep", "gaudin"):
                attempted += 1
                failures.extend(f"{name} ran JM: {why}" for why in _jm_activity(traced))
        overhead = _ratio(med("wall_s", traced), med("wall_s", untraced))
        metrics["trace.overhead"] = (overhead, "ratio", len(traced))
        if traced and traced[0]["trace"]:
            shares = self_shares(traced[0]["trace"], traced[0]["wall_s"])
            lines.append(
                "layer self-time shares (first traced pass, not gated): "
                + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items()))
            )

    for key, (value, unit, count) in metrics.items():
        shown = f"{value:.0f}" if unit in ("count", "bytes") else f"{value:.6g}"
        lines.append(f"  {key:<44} {shown:>14} {unit:<6} (median of {count})")
    lines.append(
        f"  {'real wall_s, not normalised (not a metric)':<44} "
        f"{med('raw_wall_s', untraced):>14.6g} s      (median of {len(untraced)})"
    )
    lines.append(
        f"  {'fail_ratio':<44} {_ratio(len(failures), attempted):>14.6g} ratio "
        f"({len(failures)} of {attempted})"
    )
    lines.extend(f"FAILED {f}" for f in failures)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        "summary": lines,
    }


def _jm_activity(traced: list[dict]) -> list[str]:
    """Signs that JM ran in a traced pass, whichever name it was called by.

    The call count only sees the bindings that ``tracing`` wraps; the tableau
    counter and the tableaux cache are inside JM, so they see every call.
    """
    signs = set()
    for p in traced:
        agg = p["trace"]
        calls = agg["spans"].get("jucys_murphy.jm_cellular_characters", [0, 0, 0])[2]
        if calls:
            signs.add(f"jm_cellular_characters called {calls} times")
        spectra = agg["counts"].get("jucys_murphy.tableau_spectrum.calls", 0)
        if spectra:
            signs.add(f"tableau_spectrum called {spectra} times")
        lookups = agg["cache"]["hits"] + agg["cache"]["misses"]
        if lookups:
            signs.add(f"standard_tableaux looked up {lookups} times")
    return sorted(signs)


def _unit(key: str) -> str:
    if key.endswith(("_ratio", "per_symbol", "per_cell")):
        return "ratio"
    if key.endswith("bytes"):
        return "bytes"
    return "count"


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for rel in ("src/wreathcells/__init__.py", "scripts/sweep_conjecture.py"):
        if not (ROOT / rel).is_file():
            return f"{rel} is missing: run from a wreathcells checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:  # set-up itself failed: there is nothing to measure
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    for line in result.pop("summary"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
