import contextlib
import importlib.util
import io
import shlex
from pathlib import Path

import pytest

from wreathcells.cli import cli_main

ROOT = Path(__file__).resolve().parents[1]


def _readme_examples() -> list[str]:
    """The command lines of the README's Examples block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\nExamples:\n", 1)[1].split("```\n")[1]
    return block.splitlines()


def _sweep_main():
    path = ROOT / "scripts" / "sweep_conjecture.py"
    spec = importlib.util.spec_from_file_location("sweep_conjecture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def test_readme_has_examples():
    assert len(_readme_examples()) >= 5


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_example_exits_0(line, capsys):
    program, *argv = shlex.split(line)
    if program == "wreathcells":
        assert cli_main(argv) == 0
    else:
        assert [program, argv[0]] == ["python", "scripts/sweep_conjecture.py"]
        assert _sweep_main()(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def _python_blocks() -> list[str]:
    """The README's ```python blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]


@pytest.mark.parametrize("block", _python_blocks())
def test_readme_python_prints_what_its_comments_say(block):
    # each print line ends in a comment holding the line it prints
    lines = block.splitlines()
    expected = [line.split("  # ", 1)[1] for line in lines if "print(" in line]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
