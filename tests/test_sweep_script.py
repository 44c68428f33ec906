import importlib.util
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "sweep_conjecture.py"


def _load_sweep():
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
