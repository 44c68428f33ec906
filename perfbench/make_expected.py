#!/usr/bin/env python3
"""Regenerate perfbench/expected.json: exit code and SHA-256 of every pool op.

Usage (from the repository root):

    python3 perfbench/make_expected.py

Runs every op that any seed of any workload can produce, at both sizes, each
in a fresh interpreter, and records what it returned.  The reverse-ties
canonical-basis op is recorded with the default tie order, so the benchmark
checks that flipping the ties leaves the basis byte-identical.  Only
regenerate when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    expected = {}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for op in workloads.pool_ops(name, size):
                reference = dict(op, reverse_ties=False) if "reverse_ties" in op else op
                result = run.spawn([reference])["ops"][0]
                if result["error"]:
                    print(f"{workloads.op_id(op)}: {result['error']}", file=sys.stderr)
                    return 1
                expected[workloads.op_id(op)] = {
                    "exit": result["exit"],
                    "sha256": result["sha256"],
                }
                print(f"{result['exit']} {result['sha256'][:12]} {workloads.op_id(op)}")
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
