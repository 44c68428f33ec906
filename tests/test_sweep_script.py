import importlib.util
import itertools
from pathlib import Path

import pytest

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
        assert list(verdict.cm_counts.items()) == list(expected.cm_counts.items())
        assert list(verdict.lm_counts.items()) == list(expected.lm_counts.items())


def test_one_pass_keeps_the_order_of_its_sizes():
    params = params_from_r((1, 0), 1)
    sizes = [4, 2, 3, 4]
    verdicts = check_conjecture_sizes(params, sizes)
    assert [v.n for v in verdicts] == sizes
    for verdict in verdicts:
        expected = check_conjecture(params, verdict.n)
        assert (verdict.mode, verdict.cm_counts, verdict.lm_counts) == (
            expected.mode,
            expected.cm_counts,
            expected.lm_counts,
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
