"""The CLI's JSON layout, its text writer and its listings of characters.

`json.dumps(obj, indent=2)` is the oracle for the CLI's own encoder, and
for every streamed listing, of the whole tree that the oracles in
`helpers` build for it.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wreathcells.cli as cli
from wreathcells.cli import _json_text, cli_main
from wreathcells.combinatorics import enumerate_dpartitions
from wreathcells.conjecture import params_from_r
from wreathcells.fock import canonical_basis, lm_constructible, symbol_sort_key
from wreathcells.gd12 import sim_classes
from wreathcells.jucys_murphy import CMParams, jm_cellular_characters

from helpers import (
    CharacterSum,
    check_by_character_sums,
    jm_cells_by_tableaux,
    jm_cells_json_obj,
    render_basis,
    rendered_cells,
    rendered_lm,
    rendered_n2,
)

# Quotes, backslashes, control characters and non-ASCII beside plain letters.
awkward_text = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "∅", "é", " ", "a", "1"])
    | st.characters(),
    max_size=8,
)
ints = st.integers() | st.sampled_from([0, 1, -1, 2**63, 2**64 + 1, -(2**80)])
scalars = st.none() | st.booleans() | ints | awkward_text
flat_dicts = st.dictionaries(awkward_text, scalars, max_size=4)


class Lazy(list):
    """The elements of a lazy array, before they are laid out at its depth."""


def laid_out(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads at ``depth``."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def streamed(obj, depth: int = 0):
    """``obj`` with each `Lazy` made a lazy array: a one-shot iterator of its
    elements' JSON text, laid out at their depth."""
    if isinstance(obj, Lazy):
        return iter([laid_out(value, depth + 1) for value in obj])
    if isinstance(obj, dict):
        return {key: streamed(value, depth + 1) for key, value in obj.items()}
    return obj


@st.composite
def json_values(draw):
    """Nested dicts and lists whose leaves include a few flat dicts, each
    dict possibly recurring at several depths and several times at one, also
    in a row."""
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


# A lazy array, or dicts nesting whole values and lazy arrays, as `check`'s
# document nests "diff".
documents = st.recursive(
    st.lists(json_values(), max_size=4).map(Lazy),
    lambda inner: st.dictionaries(awkward_text, inner | json_values(), max_size=4),
    max_leaves=8,
)


def emitted(obj) -> str:
    """What `--format json` writes for ``obj``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_json(SimpleNamespace(out=None), obj)
    return out.getvalue()


FLAT = {"a": True, "b": 1, "c": False, "d": 0, "e": None, "k\"\\\n∅": "v\x01∅"}
TWIN = {"a": 1, "b": True, "c": 0, "d": False, "e": None, "k\"\\\n∅": "v\x01∅"}


@settings(max_examples=300, deadline=None)
@given(json_values() | documents)
@example({})
@example([])
@example({"x": [{}, [], {"y": {}}], "": []})
@example([FLAT, TWIN, FLAT, {"in": [FLAT, {"deeper": FLAT}]}, FLAT, TWIN])
@example({"one": FLAT, "two": [FLAT, FLAT], "three": {"again": FLAT}})
@example([True, 1, False, 0, None, -(2**70), 2**64, "∅", ["∅", "a\\b", 'q"']])
@example(Lazy([]))
@example(Lazy([FLAT, [FLAT, {"in": FLAT}], "∅", None]))
@example({"a": Lazy([FLAT, FLAT, TWIN]), "b": [], "c": {"d": Lazy([1]), "e": Lazy([])}})
@example({"set": Lazy([FLAT]), "diff": {"only": Lazy([FLAT, TWIN]), "": Lazy([])}})
def test_json_text_matches_json_dumps(obj):
    expected = json.dumps(obj, indent=2)
    lazy = streamed(obj)
    if lazy == obj:  # no lazy array: the value is encoded whole
        assert _json_text(obj) == expected
    assert emitted(lazy) == expected + "\n"


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


def test_lazy_arrays_are_pulled_only_after_what_precedes_is_written(monkeypatch):
    written = []
    monkeypatch.setattr(
        sys, "stdout", SimpleNamespace(write=written.append, flush=lambda: None)
    )

    def rows(tag, count, depth):
        for k in range(count):
            # row k - 1, to its last line, has reached the handle
            assert k == 0 or "".join(written).endswith(
                laid_out([f"{tag}{k - 1}"], depth)
            )
            yield laid_out([f"{tag}{k}"], depth)

    obj = {
        "flat": rows("flat", 3, 2),
        "nested": {"inner": rows("nested", 2, 3), "empty": iter([])},
        "after": 0,
    }
    cli._emit_json(SimpleNamespace(out=None), obj)
    whole = {
        "flat": [["flat0"], ["flat1"], ["flat2"]],
        "nested": {"inner": [["nested0"], ["nested1"]], "empty": []},
        "after": 0,
    }
    assert "".join(written) == json.dumps(whole, indent=2) + "\n"


def test_a_crash_inside_a_lazy_array_leaves_a_truncated_document(monkeypatch, capsys):
    cells = iter([{"a": 1}, {"b": 0.5}, {"c": 2}])

    def document(verdict):
        return {"mode": "x", "cells": (_json_text(cell, 2) for cell in cells)}

    monkeypatch.setattr(cli, "_check_document", document)
    argv = ["check", "--r=1,0", "--c0", "1", "--n", "2", "--format", "json"]
    assert cli_main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == '{\n  "mode": "x",\n  "cells": [\n    {\n      "a": 1\n    }'
    assert "internal error: TypeError: cannot encode float as JSON" in captured.err
    assert next(cells) == {"c": 2}  # nothing was pulled past the crash


def test_unencodable_output_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_check_document", lambda verdict: {"x": 0.5})
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
    (["cm-cells-n2", "--k=0,0,0", "--c0", "0"], 0),  # c0 = 0, 2*1|1|∅
    (["cm-cells-n2", "--k=1/2,0,1/3", "--c0=-1/2"], 0),  # non-integral, c0 < 0
    (["gaudin-verify", "--c0", "1", "--k", "0,0,-1,-1"], 0),
    (["gaudin-verify", "--c0=2/3", "--k=1/3,1/3,-2/3,0"], 0),
    (["check", "--r=1,0", "--c0", "1", "--n", "2"], 0),  # exact-n2
    (["check", "--r=14,7,0", "--c0", "1", "--n", "3"], 0),  # generic
    (["check", "--r=1,0", "--c0", "1", "--n", "4"], 1),  # jm-upper-bound
    (["check", "--r=2,0", "--c0=-1/2", "--n", "5"], 1),  # jm-upper-bound
    (["check", "--r=1,1,0", "--c0", "1", "--n", "4"], 1),  # "diff" lists filled
    (["check", "--r=2,1,0", "--c0", "1", "--n", "6"], 1),  # runs of 35 copies
    (["check", "--r=0,0,0,0", "--c0", "1", "--n", "2"], 0),  # a character twice
    (["check", "--r=1,0", "--c0", "1", "--n", "0"], 0),  # n = 0: empty branches
    (["jm-cells", "--r=1,0", "--c0", "1", "--n", "0"], 0),
    (["lm-cells", "--r=1,0", "--n", "0"], 0),  # the LM entry at height 0
    (["jm-cells", "--r=1,0", "--c0", "1", "--n", "4"], 0),
    (["jm-cells", "--k=0,0", "--c0", "0", "--n", "3"], 0),  # no witness
    (["jm-cells", "--k=1,-1", "--c0=-1/2", "--n", "4"], 0),  # negative c0
    # value order reverses content order at d = 3
    (["jm-cells", "--r=2,1,0", "--c0=-1/2", "--n", "5"], 0),
    (["canonical-basis", "--r=1,1,0", "--n", "4"], 0),
    (["canonical-basis", "--r=0,0,0", "--n", "4"], 0),
    (["canonical-basis", "--r=3,1,0", "--n", "4"], 0),
    (["canonical-basis", "--r=2,1,1,0", "--n", "4"], 0),  # q+q^3 at 1|1|1|1
    (["lm-cells", "--r=1,1,0,0", "--n", "5"], 0),  # the LM entry at d = 4
    (["standard-symbols", "--r=2,1,0", "--n", "5"], 0),
    (["standard-symbols", "--r=9,0", "--n", "6"], 0),  # a gap larger than n
    (["standard-symbols", "--r=0", "--n", "5"], 0),  # d = 1: no row below
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


def _workload_cli_argvs(*names):
    """The CLI argvs of these perfbench workloads at tiny size, seed 0."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        op["argv"][: op["argv"].index("--format")]
        for name in names
        for op in workloads.build_ops(name, 0, "tiny")
        if op["kind"] == "cli"
    ]


# each distinct argv once: two fock-deep ops are also in COMMANDS
ORACLE_ARGVS = list(
    dict.fromkeys(
        tuple(argv)
        for argv in [argv for argv, _ in COMMANDS]
        + _workload_cli_argvs("check-cold", "fock-deep")
    )
)


def _whole_tree(argv):
    """The tree of a streamed listing, built whole by the oracles, or None
    for a subcommand whose tree is handed to the encoder whole."""
    args = cli.build_parser().parse_args(argv)
    if args.command == "jm-cells":
        params = cli._params_from_args(args)
        dec = jm_cellular_characters(params, args.n)
        return jm_cells_json_obj(dec, params)
    if args.command == "check":
        (verdict,) = check_by_character_sums(cli._params_from_args(args), (args.n,))
        return verdict.to_json_obj()
    if args.command == "canonical-basis":
        charges = cli._charges_from_args(args)
        basis = render_basis(canonical_basis(charges, args.n))
        return {"charges": list(charges), "max_height": args.n, "basis": basis}
    if args.command == "lm-cells":
        chars = rendered_lm(cli._charges_from_args(args), args.n)
        return {
            sym.text(): chars[sym].to_json_obj()
            for sym in sorted(chars, key=symbol_sort_key)
        }
    if args.command == "cm-cells-n2":
        params = cli._params_from_args(args)
        return {
            "classes": [list(c) for c in sim_classes(params)],
            "cells": [cs.to_json_obj() for cs in _sorted_n2_cells(params)],
        }
    return None


def _sorted_n2_cells(params) -> list[CharacterSum]:
    """The closed-form cells at n = 2 as `CharacterSum`s, in listing order."""
    return sorted(rendered_n2(params), key=CharacterSum.sort_key)


@pytest.mark.parametrize("argv", ORACLE_ARGVS, ids=" ".join)
def test_streamed_json_is_json_dumps_of_the_whole_tree(argv, monkeypatch, capsys):
    tree = _whole_tree(argv)
    handed = []
    if tree is None:
        emit = cli._emit_json
        monkeypatch.setattr(
            cli, "_emit_json", lambda args, obj: handed.append(obj) or emit(args, obj)
        )
    assert cli_main([*argv, "--format", "json"]) in (0, 1)
    out = capsys.readouterr().out
    if tree is None:
        (tree,) = handed
    assert out == json.dumps(tree, indent=2) + "\n"


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


@pytest.mark.parametrize("code", [0, 1])
def test_the_module_exits_as_cli_main_returns(code, capsys):
    # `python -m wreathcells.cli` runs `entry()`
    argv = next(argv for argv, exits in COMMANDS if exits == code)
    assert cli_main(argv) == code
    out = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "wreathcells.cli", *argv]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=300)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (code, out, b"")


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=" ".join)
def test_one_subparser_parses_as_all_nine(argv):
    one, every = cli.build_parser(argv[0]), cli.build_parser()
    assert one.parse_args(argv) == every.parse_args(argv)


PARSER_ARGVS = [
    [],
    ["--help"],
    ["-h", "check"],
    ["check", "--help"],
    ["bogus"],
    ["check"],
    ["check", "--r=1,0", "--c0", "1"],
    ["check", "--r=1,0", "--c0", "1", "--n", "3", "--bogus"],
    ["check", "--r=1,0", "--c0", "1", "--n", "3", "extra"],
    ["jm-cells", "--k=1,0", "--n", "2", "--format", "xml"],
    ["check", "-h", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_cli_main_reads_as_with_all_nine_subparsers(argv, monkeypatch, capsys):
    # help, usage and error texts, the top-level usage's list of subcommands
    # among them, as the parser of every subcommand prints them
    full = cli.build_parser
    seen = []
    for build in (full, lambda command: full()):
        monkeypatch.setattr(cli, "build_parser", build)
        code = cli_main(list(argv))
        seen.append((code, *capsys.readouterr()))
    assert seen[0] == seen[1]


# the first argv of each subcommand
FIRST_ARGVS = list({argv[0]: argv for argv, _ in reversed(COMMANDS)}.values())


@pytest.mark.parametrize("argv", FIRST_ARGVS, ids=" ".join)
def test_cli_main_builds_one_subparser(argv, monkeypatch, capsys):
    # the top-level parser and the subparser of the subcommand that runs
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert cli_main(argv) == 0
    assert len(made) == 2


@pytest.mark.parametrize(
    "charges, n",
    # b(∅|∅|2|2) at r = 2,1,1,0 has q+q^3 at 1|1|1|1, beside the monomials q and q^3
    [((1, 1, 0), 5), ((0, 0, 0), 4), ((3, 1, 0), 4), ((2,), 4), ((2, 1, 1, 0), 4)],
)
def test_canonical_basis_listing_matches_term_by_term_rendering(charges, n, capsys):
    expected = render_basis(canonical_basis(charges, n))
    argv = ["canonical-basis", f"--r={','.join(map(str, charges))}", "--n", str(n)]
    assert cli_main(argv) == 0
    assert capsys.readouterr().out == "".join(
        f"{vec['symbol']} : "
        + " + ".join(f"({t['coeff']})[{t['symbol']}]" for t in vec["terms"])
        + "\n"
        for vec in expected
    )
    assert cli_main([*argv, "--format", "json"]) == 0
    obj = {"charges": list(charges), "max_height": n, "basis": expected}
    assert capsys.readouterr().out == json.dumps(obj, indent=2) + "\n"


def test_text_lines_are_written_as_they_are_made(monkeypatch):
    written = []
    monkeypatch.setattr(
        sys, "stdout", SimpleNamespace(write=written.append, flush=lambda: None)
    )

    def lines():
        yield "first"
        assert written == ["first\n"]
        yield "second"

    cli._emit_lines(SimpleNamespace(out=None), lines())
    assert written == ["first\n", "second\n"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gaudin_verify_needs_two_components(fmt, capsys):
    # d = 1 has no pair of components to verify
    assert cli_main(["gaudin-verify", "--r=0", "--c0", "1", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gaudin-verify needs at least two components\n"


def test_gaudin_verify_text_names_an_irreducible_pair_once(capsys):
    argv = ["gaudin-verify", "--c0=2/3", "--k=1/3,1/3,-2/3,0"]
    reason = (
        "ksharp difference 1/3 is neither 0 (d even) nor +-c0; certified "
        "irreducible, discriminant is none of the monomial square patterns"
    )
    assert cli_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"pair (1, 2): {reason}"
    assert lines[3] == "pair (2, 3): gap+c0: ok, gap+c0: ok (ok=True)"
    assert len(lines) == 6 and all(line.count("pair") == 1 for line in lines)
    # JSON keeps the whole RegimeMismatch message, which leads with the pair
    assert cli_main([*argv, "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["irreducible"] == f"pair (1,2): {reason}"


UPPER = "JM cells (upper bounds: CM cells may be merged)"


@pytest.mark.parametrize(
    "argv, header",
    [
        (
            ["--c0", "1", "--k=-1,0", "--n", "4"],
            [UPPER, "generic: False  witness(k-index p, q, j): (0, 1, -1)"],
        ),
        (
            ["--r=14,7,0", "--c0", "1", "--n", "3"],
            ["JM cells (= CM cells: parameters generic)", "generic: True"],
        ),
        (["--k=0,0", "--c0", "0", "--n", "3"], [UPPER, "generic: False"]),
    ],
    ids=["witness", "generic", "no-witness"],
)
def test_jm_cells_text_opens_with_its_genericity(argv, header, capsys):
    assert cli_main(["jm-cells", *argv]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == header


def _count_shape_texts(monkeypatch) -> Counter:
    """Count the shape texts that the listings make, per shape, from here on:
    `cli` renders each shape from its bare components with `components_text`."""
    made = Counter()
    text = cli.components_text

    def counting(components):
        made[components] += 1
        return text(components)

    monkeypatch.setattr(cli, "components_text", counting)
    return made


@pytest.mark.parametrize(
    "params, n",
    [
        (CMParams.from_ksharp(2, 1, (-1, 0)), 0),
        (CMParams.from_ksharp(2, 1, (-1, 0)), 5),
        (params_from_r((1, 1, 0), Fraction(-1, 2)), 4),
        (CMParams.from_ksharp(3, Fraction(1, 3), (1, Fraction(-1, 2), 0)), 4),
    ],
)
def test_jm_cells_listings_read_each_cell(params, n, monkeypatch, capsys):
    dec = jm_cellular_characters(params, n)
    cells = rendered_cells(dec, params.d)
    assert cells == jm_cells_by_tableaux(params, n).cells
    expected_text = [
        f"spectrum ({', '.join(str(x) for x in spec)}): {cs.text()}"
        for spec, cs in cells
    ]
    expected_json = json.dumps(jm_cells_json_obj(dec, params), indent=2) + "\n"
    k = ",".join(str(x) for x in params.k)
    argv = ["jm-cells", f"--c0={params.c0}", f"--k={k}", "--n", str(n)]
    made = _count_shape_texts(monkeypatch)
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.splitlines()[2:] == expected_text
    assert max(made.values(), default=0) <= 1
    made.clear()
    assert cli_main([*argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == expected_json
    assert max(made.values(), default=0) <= 1


@pytest.mark.parametrize("r, n", [("1,0", 0), ("1,0", 5), ("1,1,0,0", 4)])
def test_lm_cells_listings_render_each_character_once(r, n, monkeypatch, capsys):
    charges = tuple(int(x) for x in r.split(","))
    chars = rendered_lm(charges, n)
    ordered = sorted(chars, key=symbol_sort_key)
    expected_text = "".join(f"{sym.text()} : {chars[sym].text()}\n" for sym in ordered)
    obj = {sym.text(): chars[sym].to_json_obj() for sym in ordered}
    expected_json = json.dumps(obj, indent=2) + "\n"
    rendered = Counter()
    for name in ("text", "json"):
        method = getattr(cli._Characters, name)

        def counting(self, ids, *depth, method=method):
            rendered[ids] += 1
            return method(self, ids, *depth)

        monkeypatch.setattr(cli._Characters, name, counting)
    made = _count_shape_texts(monkeypatch)
    argv = ["lm-cells", f"--r={r}", "--n", str(n)]
    for fmt, expected in ("text", expected_text), ("json", expected_json):
        rendered.clear()
        made.clear()
        assert cli_main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == expected
        # each distinct character once, each shape's text at most once
        assert rendered == Counter(set(lm_constructible(charges, (n,))[n].values()))
        assert max(made.values()) == 1


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in COMMANDS if argv[0] == "cm-cells-n2"], ids=" ".join
)
def test_cm_cells_n2_text_is_each_character_sum_text(argv, monkeypatch, capsys):
    params = cli._params_from_args(cli.build_parser().parse_args(argv))
    expected = [f"classes: {sim_classes(params)}"]
    expected += [cs.text() for cs in _sorted_n2_cells(params)]
    made = _count_shape_texts(monkeypatch)
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
    # each shape's text is made at most once for the whole listing
    assert max(made.values()) == 1


def test_walk_renders_each_value_and_character_once():
    dec = jm_cellular_characters(CMParams.from_ksharp(2, 1, (-1, 0)), 6)
    shapes = enumerate_dpartitions(2, 6)
    labelled, rendered = [], []

    def label(v):
        labelled.append(v)
        return str(v)

    def render(ids):
        rendered.append(ids)
        return CharacterSum.from_ids(shapes, ids).text()

    cells = list(dec.walk(label, render))
    assert labelled == list(dec.values)
    # each final state once, as the ids `character_counts` lists
    assert sorted(rendered) == list(dec.character_counts())
    assert len(set(rendered)) == len(rendered)
    assert cells == [
        (tuple(str(x) for x in spec), cs.text()) for spec, cs in rendered_cells(dec, 2)
    ]


def test_check_encodes_each_character_once_per_depth(monkeypatch, capsys):
    # (1, 1, 0) at n = 4 is unequal, with cells of multiplicity above 1
    (oracle,) = check_by_character_sums(params_from_r((1, 1, 0), 1), (4,))
    assert max(oracle.cm_counts.values()) > 1 and oracle.cm_only and oracle.lm_only
    expected = json.dumps(oracle.to_json_obj(), indent=2) + "\n"
    index = {dp: i for i, dp in enumerate(enumerate_dpartitions(3, 4))}

    def as_ids(cs):
        return tuple((index[dp], m) for dp, m in cs.entries)

    encoded = Counter()
    encode = cli._Characters.json

    def counting(self, ids, depth):
        encoded[depth, ids] += 1
        return encode(self, ids, depth)

    monkeypatch.setattr(cli._Characters, "json", counting)
    made = _count_shape_texts(monkeypatch)
    argv = ["check", "--r=1,1,0", "--c0", "1", "--n", "4", "--format", "json"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().out == expected
    # depth 2 in the sets and multisets, depth 3 in "diff"
    in_sets = oracle.cm_counts | oracle.lm_counts
    in_diff = oracle.cm_only + oracle.lm_only
    assert encoded == Counter(
        [(2, as_ids(cs)) for cs in in_sets] + [(3, as_ids(cs)) for cs in in_diff]
    )
    # each shape's text is made at most once for the whole document
    assert max(made.values()) == 1


@pytest.mark.parametrize(
    "r, n, code", [("1,1,0", 4, 1), ("1,0", 2, 0)], ids=["unequal", "equal"]
)
def test_text_check_makes_each_shape_text_once(r, n, code, monkeypatch, capsys):
    (oracle,) = check_by_character_sums(params_from_r(r.split(","), 1), (n,))
    expected = oracle.text_listing()
    rendered = Counter()
    text = cli._Characters.text

    def counting(self, ids):
        rendered[ids] += 1
        return text(self, ids)

    monkeypatch.setattr(cli._Characters, "text", counting)
    made = _count_shape_texts(monkeypatch)
    assert cli_main(["check", f"--r={r}", "--c0", "1", "--n", str(n)]) == code
    assert capsys.readouterr().out == expected
    # each character is rendered where it is listed, and no text is kept
    # across the listing but each shape's
    listed = len(oracle.cm_counts) + len(oracle.lm_counts)
    if not oracle.equal:
        listed += len(oracle.cm_only) + len(oracle.lm_only)
    assert rendered.total() == listed
    assert max(made.values()) == 1


JM_CELLS_7 = ["jm-cells", "--r=2,1,0", "--c0", "1", "--n", "7"]


@pytest.mark.parametrize(
    "argv, unbuffered, first_line",
    [
        # far longer than a pipe holds, so writing goes on after the reader
        # has gone
        (JM_CELLS_7, False, b"JM cells (upper bounds: CM cells may be merged)\n"),
        (JM_CELLS_7, True, b"JM cells (upper bounds: CM cells may be merged)\n"),
        # the reader has gone before anything is written, and the whole
        # listing waits in the buffer until the last flush
        (["check", "--r=1,0", "--c0", "1", "--n", "2"], False, None),
    ],
    ids=["long-buffered", "long-unbuffered", "short-buffered"],
)
def test_a_closed_stdout_is_reported_in_one_line(argv, unbuffered, first_line):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "wreathcells.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        if first_line is not None:
            assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read().decode()
    # no traceback, and no "Exception ignored" from the interpreter's last flush
    assert err == "error: cannot write stdout: Broken pipe\n"
    assert proc.returncode == 2
