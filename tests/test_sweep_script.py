import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wreathcells
from wreathcells import check_conjecture, check_conjecture_sizes, params_from_r
from wreathcells.combinatorics import enumerate_dpartitions

from helpers import record_dpartitions

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "sweep_conjecture.py"


def _load_sweep():
    # not registered in sys.modules, so a worker process could not import the
    # script by its module name
    spec = importlib.util.spec_from_file_location("sweep_conjecture", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-d", "0"],
        ["--max-n", "1"],
        ["--max-charge", "-1", "--max-d", "2"],
        ["--jobs", "0"],
    ],
)
def test_sweep_rejects_a_battery_that_checks_nothing(argv, capsys):
    # each would check no point, or drop some, and still exit 0
    with pytest.raises(SystemExit) as exc:
        _load_sweep().main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {argv[0]} must be at least" in captured.err


def test_one_pass_verdicts_match_check_conjecture():
    # the CI battery: 15 charge vectors, n = 2..6, each vector in one pass
    points = _load_sweep().built_in_battery(3, 6, 3)
    assert len(points) == 75
    one_pass = []
    for r, group in itertools.groupby(points, key=lambda point: point[0]):
        one_pass.extend(check_conjecture_sizes(params_from_r(r, 1), [n for _, n in group]))
    assert [(v.charges, v.n) for v in one_pass] == points
    for verdict, (r, n) in zip(one_pass, points):
        expected = check_conjecture(params_from_r(r, 1), n)
        assert (verdict.mode, verdict.n, verdict.charges) == (expected.mode, n, r)
        assert list(verdict.cm_ids.items()) == list(expected.cm_ids.items())
        assert list(verdict.lm_ids.items()) == list(expected.lm_ids.items())


def test_one_pass_keeps_the_order_of_its_sizes():
    params = params_from_r((1, 0), 1)
    sizes = [4, 2, 3, 4]
    verdicts = check_conjecture_sizes(params, sizes)
    assert [v.n for v in verdicts] == sizes
    for verdict in verdicts:
        expected = check_conjecture(params, verdict.n)
        assert (verdict.mode, verdict.cm_ids, verdict.lm_ids) == (
            expected.mode,
            expected.cm_ids,
            expected.lm_ids,
        )


def test_a_pool_of_two_prints_what_one_worker_prints(capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert _load_sweep().main(["--max-d", "2", "--max-n", "4", "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        assert not captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n15 points, 0 hard failures\n")


def test_the_sweep_builds_no_dpartition(monkeypatch, capsys):
    built = record_dpartitions(monkeypatch)
    # a d-partition cached by an earlier test would hide its construction
    enumerate_dpartitions.cache_clear()
    assert _load_sweep().main(["--max-d", "3", "--max-n", "5", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.endswith(" points, 0 hard failures\n")
    assert built == []


def test_a_closed_stdout_is_reported_in_one_line():
    # the header goes out before the battery is checked, so the reader is
    # gone by the time the rows are written
    src = Path(wreathcells.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, str(SWEEP), "--max-d", "3", "--max-n", "5"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline().split() == [
            b"charges", b"n", b"mode", b"equal", b"#cm", b"#lm"
        ]
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: Broken pipe\n"
