import concurrent.futures
import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wreathcells
from wreathcells import check_conjecture, check_conjecture_sizes, params_from_r


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


def test_a_crash_in_the_battery_exits_3(monkeypatch, capsys):
    # exit 1 means "hard failures", so a crash must not exit 1
    sweep = _load_sweep()

    def crash(params, sizes):
        raise RuntimeError("no battery today")

    monkeypatch.setattr(sweep, "check_conjecture_sizes", crash)
    assert sweep.main(["--max-d", "2", "--max-n", "2"]) == 3
    captured = capsys.readouterr()
    # the header went out before the battery was checked, and no row after it
    assert len(captured.out.splitlines()) == 2
    err = captured.err.splitlines()
    assert err[0] == "Traceback (most recent call last):"
    assert err[-1] == "internal error: RuntimeError: no battery today"


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


@pytest.mark.parametrize(
    "battery, jobs, pools",
    [([], "64", [15]), (["--max-d", "2"], "3", [3]), (["--max-d", "1"], "4", [])],
)
def test_the_pool_has_no_more_workers_than_charge_vectors(
    battery, jobs, pools, monkeypatch, capsys
):
    # a forked pool starts all its workers at the first task; one charge
    # vector is checked without a pool
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    sweep = _load_sweep()
    assert sweep.main(battery) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert sweep.main([*battery, "--jobs", jobs]) == 0
    assert made == pools
    assert capsys.readouterr().out == serial


def test_a_serial_sweep_imports_no_process_pool():
    src = Path(wreathcells.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('sweep', {str(SWEEP)!r})\n"
        "sweep = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(sweep)\n"
        "code = sweep.main(['--max-d', '1', '--max-n', '2'])\n"
        "pool = ('concurrent.futures', 'multiprocessing')\n"
        "print([name for name in pool if name in sys.modules])\n"
        "sys.exit(code)\n"
    )
    argv = [sys.executable, "-c", script]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.splitlines()[-1] == b"[]"


@pytest.mark.parametrize(
    "max_d, max_n, points", [("3", "8", 105), ("3", "10", 135), ("5", "2", 70)]
)
def test_deep_sweeps_have_no_hard_failures(max_d, max_n, points, capsys):
    # d <= 5 at n = 2 meets the exact closed forms; filterwarnings = error
    # makes a PositivityWarning fail the test
    assert _load_sweep().main(["--max-d", max_d, "--max-n", max_n]) == 0
    out, err = capsys.readouterr()
    assert not err and out.splitlines()[-1] == f"{points} points, 0 hard failures"


def test_the_sweep_prints_the_same_under_python_O(capsys):
    # the invariant checks raise named exceptions, so they run under -O too
    argv = ["--max-d", "3", "--max-n", "8"]
    assert _load_sweep().main(argv) == 0
    out = capsys.readouterr().out.encode()
    src = Path(wreathcells.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    flags = ["-O", "-W", "error::wreathcells.fock.PositivityWarning"]
    argv = [sys.executable, *flags, str(SWEEP), *argv]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, b"")


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
