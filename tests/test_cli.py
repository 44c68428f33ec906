"""The CLI's JSON layout, its text writer and the `jm-cells` listings.

`json.dumps(obj, indent=2)` is the oracle for the CLI's own encoder.
"""

import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wreathcells.cli as cli
from wreathcells.cli import _json_text, cli_main
from wreathcells.conjecture import params_from_r
from wreathcells.jucys_murphy import CMParams, jm_cellular_characters

from helpers import jm_cells_by_tableaux

# Quotes, backslashes, control characters and non-ASCII beside plain letters.
awkward_text = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "∅", "é", " ", "a", "1"])
    | st.characters(),
    max_size=8,
)
ints = st.integers() | st.sampled_from([0, 1, -1, 2**63, 2**64 + 1, -(2**80)])
scalars = st.none() | st.booleans() | ints | awkward_text
flat_dicts = st.dictionaries(awkward_text, scalars, max_size=4)


@st.composite
def json_values(draw):
    """Nested dicts and lists whose leaves include a few flat dicts, each
    object possibly recurring at several depths and several times at one."""
    shared = draw(st.lists(flat_dicts, min_size=1, max_size=3))
    leaves = scalars | st.sampled_from(shared) | flat_dicts
    return draw(
        st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(awkward_text, inner, max_size=4),
            max_leaves=30,
        )
    )


FLAT = {"a": True, "b": 1, "c": False, "d": 0, "e": None, "k\"\\\n∅": "v\x01∅"}
TWIN = {"a": 1, "b": True, "c": 0, "d": False, "e": None, "k\"\\\n∅": "v\x01∅"}


@settings(max_examples=300, deadline=None)
@given(json_values())
@example({})
@example([])
@example({"x": [{}, [], {"y": {}}], "": []})
@example([FLAT, TWIN, FLAT, {"in": [FLAT, {"deeper": FLAT}]}, FLAT, TWIN])
@example({"one": FLAT, "two": [FLAT, FLAT], "three": {"again": FLAT}})
@example([True, 1, False, 0, None, -(2**70), 2**64, "∅", ["∅", "a\\b", 'q"']])
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        0.5,
        Fraction(1, 2),
        (1, 2),
        {1: "a"},
        {None: "a"},
        ["a", "b", 1.0],
        ["a", ("b",)],
        {"flat": {"x": Fraction(1, 3)}},
        [{"spectrum": ["0", "1"], "character": {1: 1}}],
    ],
    ids=repr,
)
def test_json_text_rejects_what_the_cli_never_emits(obj):
    with pytest.raises(TypeError, match="cannot encode"):
        _json_text(obj)


def test_unencodable_output_is_an_internal_error(monkeypatch, capsys):
    verdict = SimpleNamespace(equal=True, to_json_obj=lambda: {"x": 0.5})
    monkeypatch.setattr(cli, "check_conjecture", lambda params, n: verdict)
    argv = ["check", "--r=1,0", "--c0", "1", "--n", "2", "--format", "json"]
    assert cli_main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: TypeError: cannot encode float as JSON" in captured.err


COMMANDS = [
    (["dpartitions", "--d", "2", "--n", "3"], 0),
    (["tableaux", "--d", "2", "--n", "3"], 0),
    (["tableaux", "--shape", "∅"], 0),
    (["jm-cells", "--c0", "1", "--k=-1,0", "--n", "4"], 0),
    (["jm-cells", "--c0=-1/2", "--r=1,1,0", "--n", "3"], 0),
    (["jm-cells", "--c0", "1", "--k=-1,0", "--n", "0"], 0),
    (["standard-symbols", "--r=2,0", "--n", "3"], 0),
    (["canonical-basis", "--r=1,1,0", "--n", "3"], 0),
    (["lm-cells", "--r=1,0", "--n", "4"], 0),
    (["cm-cells-n2", "--c0", "1", "--r=1,0"], 0),
    (["gaudin-verify", "--c0", "1", "--k", "0,0,-1,-1"], 0),
    (["check", "--r=1,0", "--c0", "1", "--n", "2"], 0),  # exact-n2
    (["check", "--r=14,7,0", "--c0", "1", "--n", "3"], 0),  # generic
    (["check", "--r=1,0", "--c0", "1", "--n", "4"], 1),  # jm-upper-bound
    (["check", "--r=2,0", "--c0=-1/2", "--n", "5"], 1),  # jm-upper-bound
]


@pytest.mark.parametrize(
    "argv, code", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
)
def test_cli_json_is_laid_out_as_json_dumps(argv, code, tmp_path, capsys):
    assert cli_main([*argv, "--format", "json"]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    assert out.isascii()
    target = tmp_path / "out.json"
    assert cli_main([*argv, "--format", "json", "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize(
    "argv, code", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
)
def test_cli_text_goes_to_out_as_to_stdout(argv, code, tmp_path, capsys):
    assert cli_main(argv) == code
    out = capsys.readouterr().out
    assert out.endswith("\n") and not out.endswith("\n\n")
    target = tmp_path / "out.txt"
    assert cli_main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == out


def test_text_lines_are_written_as_they_are_made(monkeypatch):
    written = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=written.append))

    def lines():
        yield "first"
        assert written == ["first\n"]
        yield "second"

    cli._emit_lines(SimpleNamespace(out=None), lines())
    assert written == ["first\n", "second\n"]


def test_an_empty_text_listing_is_one_newline(capsys):
    # d = 1 has no pair of rows to verify
    assert cli_main(["gaudin-verify", "--r=0", "--c0", "1"]) == 0
    assert capsys.readouterr().out == "\n"


@pytest.mark.parametrize(
    "params, n",
    [
        (CMParams.from_ksharp(2, 1, (-1, 0)), 0),
        (CMParams.from_ksharp(2, 1, (-1, 0)), 5),
        (params_from_r((1, 1, 0), Fraction(-1, 2)), 4),
        (CMParams.from_ksharp(3, Fraction(1, 3), (1, Fraction(-1, 2), 0)), 4),
    ],
)
def test_jm_cells_listings_read_each_cell(params, n, capsys):
    dec = jm_cellular_characters(params, n)
    assert dec.cells == jm_cells_by_tableaux(params, n).cells
    k = ",".join(str(x) for x in params.k)
    argv = ["jm-cells", f"--c0={params.c0}", f"--k={k}", "--n", str(n)]
    assert cli_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        f"spectrum ({', '.join(str(x) for x in spec)}): {cs.text()}"
        for spec, cs in dec.cells
    ]
    assert dec.to_json_obj()["cells"] == [
        {"spectrum": [str(x) for x in spec], "character": cs.to_json_obj()}
        for spec, cs in dec.cells
    ]


def test_walk_renders_each_move_and_character_once():
    dec = jm_cellular_characters(CMParams.from_ksharp(2, 1, (-1, 0)), 6)
    labelled, rendered = [], []

    def label(v):
        labelled.append(v)
        return str(v)

    def render(cs):
        rendered.append(cs)
        return cs.text()

    cells = list(dec.walk(label, render))
    assert len(labelled) == sum(len(moves) for moves in dec.children.values())
    assert len(rendered) == len(dec.finals)
    assert cells == [
        (tuple(str(x) for x in spec), cs.text()) for spec, cs in dec.cells
    ]
