#!/usr/bin/env python3
"""Run the benchmark over several seeds and write a BENCH record.

Usage (from the repository root):

    python3 perfbench/record.py --label baseline

For each seed, runs every workload once untraced; then runs each workload
traced twice at seed 0 and checks that every count repeats.  Writes
``perfbench/results/BENCH_<label>.json`` with the host's CPU count, the Python
version, every run's values and, per workload and metric, the median, the
quartiles, the sample count and the spread (quartile distance over median)
next to the metric's bound.  Runs go one at a time, in this process's own
resources: no CPU pinning, priority or cgroup change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from run import TIME_SUFFIXES  # noqa: E402

SEEDS = 10  # seeds 1..SEEDS, one untraced run of every workload each


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed",
           str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    *summary, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["run_s"] = elapsed
    result["summary"] = summary  # includes the real, unnormalised wall time
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--traced-runs", type=int, default=2)
    args = parser.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in range(1, SEEDS + 1):
        for name in names:
            result = bench(name, seed, 0)
            runs[name].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{name} seed {seed} ({result['run_s']:.1f} s): {values}", flush=True)

    traced = {name: [] for name in names}
    for _ in range(args.traced_runs):
        for name in names:
            traced[name].append({"seed": 0, **bench(name, 0, 1)})
            print(f"{name} traced seed 0 done", flush=True)

    workloads, all_ok = {}, True
    for name in names:
        e2e = {}
        for metric, bound in bounds.items():
            summary = summarise([r["metrics"][metric]["value"] for r in runs[name]])
            summary["bound"] = bound
            e2e[metric] = summary
            steady = summary["spread"] < bound / 3
            all_ok = all_ok and steady
            print(f"{name:<11} {metric:<12} median {summary['median']:.4f} "
                  f"spread {summary['spread']:.3f} bound {bound} "
                  f"{'ok' if steady else 'NOT STEADY'}")
        layers, repeat = {}, True
        for metric in traced[name][0]["metrics"] if traced[name] else ():
            values = [r["metrics"][metric]["value"] for r in traced[name]]
            layers[metric] = summarise(values)
            if not metric.endswith(TIME_SUFFIXES) and metric != "trace.overhead":
                repeat = repeat and len(set(values)) == 1
        all_ok = all_ok and repeat
        print(f"{name:<11} counts repeat across traced runs: {repeat}")
        workloads[name] = {
            "end_to_end": e2e,
            "per_layer": layers,
            "counts_repeat": repeat,
            "runs": runs[name],
            "traced_runs": traced[name],
        }

    record = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine()},
        "python": platform.python_version(),
        "run_seconds": SPEC["run_seconds"],
        "notes": (
            "Runs made one at a time on a shared host. No CPU pinning, priority "
            "or cgroup change was made. Times are normalised by the host-speed "
            "probe (run.NOMINAL_PROBE_S); each run's summary keeps the real wall "
            "time. End-to-end values are one run per seed "
            f"1..{SEEDS}; per-layer values are {args.traced_runs} traced runs at seed 0. "
            "spread = (q3 - q1) / median with statistics.quantiles(n=4)."
        ),
        "workloads": workloads,
    }
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}; {'steady' if all_ok else 'NOT steady'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
