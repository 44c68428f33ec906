"""Every Python file of the project parses as Python 3.10, the oldest version
that pyproject.toml's ``requires-python`` admits.

This checks syntax alone (``ast.parse`` with ``feature_version=(3, 10)``),
under whatever interpreter runs the suite.  It does not check stdlib APIs: a
call to a function or module added after 3.10 still parses, and only a run
under 3.10 finds it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path
    for folder in ("src", "scripts", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_sources_are_found():
    names = {path.relative_to(ROOT).as_posix() for path in SOURCES}
    assert len(names) > 30
    assert {"src/wreathcells/cli.py", "scripts/sweep_conjecture.py"} <= names
    assert {"tests/helpers.py", "perfbench/run.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_syntax_newer_than_3_10_is_rejected():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
