"""Tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_reports_every_metric(name):
    plain = run.run(name, 0, 0, False, size="tiny")
    assert plain["correct"], plain["summary"]
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run(name, 0, 0, True, size="tiny")
    assert traced["correct"], traced["summary"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    jm_calls = traced["metrics"]["jucys_murphy.jm_cellular_characters.calls"]["value"]
    assert (jm_calls == 0) == (name in ("fock-deep", "gaudin"))


def test_corrupted_digest_is_a_failure():
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    first = workloads.op_id(workloads.build_ops("fock-deep", 0, "tiny")[0])
    expected[first] = dict(expected[first], sha256="0" * 64)
    result = run.run("fock-deep", 0, 0, False, size="tiny", expected=expected)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(first in line for line in result["summary"])


def test_jm_gate_sees_a_call_through_an_unwrapped_name():
    import wreathcells
    from tracing import Tracer, install

    tracer = Tracer()
    with install(tracer):  # the package-level name is not one that is wrapped
        wreathcells.jm_cellular_characters(wreathcells.CMParams.from_ksharp(2, 1, [0, 0]), 2)
    agg = dict(tracer.report(), cache={"hits": 0, "misses": 0})
    assert "jucys_murphy.jm_cellular_characters" not in agg["spans"]
    assert any("tableau_spectrum" in sign for sign in run._jm_activity([{"trace": agg}]))


def test_every_seed_draws_from_the_committed_pool():
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for seed in range(20):
                for op in workloads.build_ops(name, seed, size):
                    assert workloads.op_id(op) in expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
