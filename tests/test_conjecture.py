import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    CharacterSum,
    check_by_character_sums,
    rendered_cells,
    rendered_lm,
    rendered_n2_family,
    rendered_verdict,
    scaled,
)
import wreathcells.cli as cli
import wreathcells.conjecture as conjecture
from wreathcells.cli import cli_main
from wreathcells.conjecture import (
    InvalidParam,
    NonIntegralRatio,
    UnsortedParameters,
    check_conjecture,
    params_from_r,
    r_from_params,
)
import wreathcells.fock as fock
from wreathcells.fock import LatticeViolation, MissingBead
from wreathcells.jucys_murphy import CMParams, jm_cellular_characters


def _multiset(counts):
    """Each character of ``counts`` as often as its count, in their order."""
    return tuple(cs for cs, m in counts.items() for _ in range(m))


def test_params_from_r_example():
    params = params_from_r((1, 0), 1)
    assert (params.ksharp(1), params.ksharp(2)) == (Fraction(-1), Fraction(0))


def test_params_from_r_zero_charges():
    params = params_from_r((0, 0, 0), Fraction(5, 3))
    assert all(x == 0 for x in params.k)


def test_params_from_r_rejects_zero_c0():
    with pytest.raises(InvalidParam):
        params_from_r((1, 0), 0)


def test_params_from_r_rejects_unsorted():
    with pytest.raises(UnsortedParameters):
        params_from_r((0, 1), 1)


def test_r_from_params_examples():
    assert r_from_params(CMParams.from_ksharp(2, 1, (-1, 0))) == (1, 0)
    assert r_from_params(CMParams.from_ksharp(3, 2, (-4, -2, 0))) == (2, 1, 0)


def test_r_from_params_errors():
    with pytest.raises(UnsortedParameters):
        r_from_params(CMParams.from_ksharp(2, 1, (0, -1)))
    with pytest.raises(NonIntegralRatio):
        r_from_params(CMParams.from_ksharp(2, 2, (-1, 0)))
    with pytest.raises(InvalidParam):
        r_from_params(CMParams.from_ksharp(2, 0, (-1, 0)))


charge_vectors = st.lists(st.integers(-3, 3), min_size=1, max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
nonzero_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
).filter(lambda x: x != 0)


@given(charge_vectors, nonzero_rationals)
def test_round_trip_dictionary(r, c0):
    assert r_from_params(params_from_r(r, c0)) == r


def test_check_gap_one():
    verdict = check_conjecture(params_from_r((1, 0), 1), 2)
    assert verdict.equal and verdict.mode == "exact-n2"
    texts = {cs.text() for cs in rendered_verdict(verdict).cm_counts}
    assert texts == {
        "2|∅",
        "1.1|∅ + 1|1",
        "1|1 + ∅|2",
        "∅|1.1",
    }


def test_check_generic():
    verdict = check_conjecture(params_from_r((14, 7, 0), 1), 3)
    assert verdict.equal and verdict.mode == "generic"
    cm_counts = rendered_verdict(verdict).cm_counts
    assert all(len(cs.entries) == 1 for cs in cm_counts)
    assert len(cm_counts) == 22


def test_check_equal_charges():
    verdict = check_conjecture(params_from_r((0, 0), 1), 2)
    assert verdict.equal
    assert len(rendered_verdict(verdict).cm_counts) == 3


def test_check_from_params():
    params = CMParams.from_ksharp(2, 1, (-1, 0))
    verdict = check_conjecture(params, 2)
    assert verdict.equal and verdict.charges == (1, 0)


def test_check_upper_bound_mode():
    # repeated charges at n = 3 are not generic; both pipelines still agree
    verdict = check_conjecture(params_from_r((1, 0, 0), 1), 3)
    assert verdict.mode == "jm-upper-bound"


def test_check_lists_no_jm_cell(monkeypatch):
    # the multiplicities are path counts in the JM state graph
    built = []

    def recording(params, n):
        built.append(jm_cellular_characters(params, n))
        return built[-1]

    monkeypatch.setattr(conjecture, "jm_cellular_characters", recording)
    verdict = check_conjecture(params_from_r((1, 1, 0), 1), 5)
    (decomposition,) = built
    assert "cells" not in vars(decomposition)
    cells = rendered_cells(decomposition, 3)
    assert _multiset(rendered_verdict(verdict).cm_counts) == tuple(
        sorted((cs for _, cs in cells), key=CharacterSum.sort_key)
    )


@pytest.mark.parametrize("factor", [Fraction(2), Fraction(-1, 3)])
def test_check_invariant_under_scaling(factor):
    base = CMParams.from_ksharp(2, 1, (-1, 0))
    v1 = rendered_verdict(check_conjecture(base, 2))
    v2 = rendered_verdict(check_conjecture(scaled(base, factor), 2))
    assert v1.cm_counts == v2.cm_counts and v1.lm_counts == v2.lm_counts
    assert v1.equal and v2.equal


@pytest.mark.parametrize("shift", [-2, 3])
def test_check_invariant_under_charge_shift(shift):
    # a common shift of the charges changes nothing but the charges
    for n in (2, 3):
        base = check_conjecture(params_from_r((1, 0), 1), n)
        shifted = check_conjecture(params_from_r((1 + shift, shift), 1), n)
        assert shifted.charges == (1 + shift, shift)
        assert dataclasses.replace(shifted, charges=base.charges) == base


def test_verdict_json_round_trip(capsys):
    argv = ["check", "--r=1,0", "--c0", "1", "--n", "2", "--format", "json"]
    assert cli_main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    (oracle,) = check_by_character_sums(params_from_r((1, 0), 1), (2,))
    assert obj == oracle.to_json_obj()
    assert obj["equal"] is True
    assert obj["mode"] == "exact-n2"
    verdict = rendered_verdict(check_conjecture(params_from_r((1, 0), 1), 2))
    assert obj["cm_set"] == [cs.to_json_obj() for cs in verdict.cm_counts]


# (charges, n, mode, equal): one point per mode, jm-upper-bound both ways
VERDICT_POINTS = [
    ((1, 0), 2, "exact-n2", True),
    ((5, 0), 3, "generic", True),
    ((2, 0), 3, "jm-upper-bound", True),
    ((1, 0), 3, "jm-upper-bound", False),
    ((1, 1, 0), 3, "jm-upper-bound", False),
]


@pytest.mark.parametrize("r, n, mode, equal", VERDICT_POINTS)
def test_verdict_derives_sets_and_differences(r, n, mode, equal):
    params = params_from_r(r, 1)
    verdict = rendered_verdict(check_conjecture(params, n))
    assert (verdict.mode, verdict.equal) == (mode, equal)
    # the expanded multisets are every cell's character, sorted
    if n == 2:
        cells = [cs for _, cs in rendered_n2_family(params)]
    else:
        dec = jm_cellular_characters(params, n)
        cells = [cs for _, cs in rendered_cells(dec, params.d)]
    key = CharacterSum.sort_key
    assert _multiset(verdict.cm_counts) == tuple(sorted(cells, key=key))
    lm_cells = rendered_lm(verdict.charges, n).values()
    assert _multiset(verdict.lm_counts) == tuple(sorted(lm_cells, key=key))
    cm, lm = set(verdict.cm_counts), set(verdict.lm_counts)
    assert verdict.equal == (cm == lm)
    assert verdict.cm_only == tuple(sorted(cm - lm, key=key))
    assert verdict.lm_only == tuple(sorted(lm - cm, key=key))
    assert bool(verdict.note) == (mode == "jm-upper-bound" and not equal)


@pytest.mark.parametrize("r, n, mode, equal", VERDICT_POINTS)
def test_verdict_json_key_order(r, n, mode, equal, capsys):
    argv = ["check", f"--r={','.join(map(str, r))}", "--c0", "1", "--n", str(n)]
    assert cli_main([*argv, "--format", "json"]) == (0 if equal else 1)
    out = capsys.readouterr().out
    (oracle,) = check_by_character_sums(params_from_r(r, 1), (n,))
    assert out == json.dumps(oracle.to_json_obj(), indent=2) + "\n"
    obj = json.loads(out)
    assert list(obj) == [
        "mode",
        "n",
        "charges",
        "equal",
        "cm_set",
        "lm_set",
        "diff",
        "cm_multiset",
        "lm_multiset",
        "note",
    ]
    assert list(obj["diff"]) == ["cm_only", "lm_only"]


# Command-line surface


def test_cli_check_ok(capsys):
    assert cli_main(["check", "--r", "1,0", "--n", "2", "--c0", "1"]) == 0
    out = capsys.readouterr().out
    assert "equal: True" in out


def test_cli_check_json(capsys):
    code = cli_main(
        ["check", "--r", "1,0", "--n", "2", "--c0", "1", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["equal"] is True


def test_cli_canonical_basis_json(capsys):
    code = cli_main(
        ["canonical-basis", "--r", "1,0", "--n", "2", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["basis"]) == 7  # heights 0..2 of the crystal component
    assert {b["symbol"] for b in obj["basis"]} >= {"1|1", "2|∅", "∅|2", "∅|1.1"}


def test_cli_usage_error_unsorted():
    assert cli_main(["check", "--r", "-1,0", "--n", "2", "--c0", "1"]) == 2


def test_cli_accepts_negative_decreasing_charges():
    # (0, -1) is weakly decreasing, hence a legal charge vector
    assert cli_main(["check", "--r", "0,-1", "--n", "2", "--c0", "1"]) == 0


def test_cli_usage_error_missing():
    assert cli_main(["jm-cells", "--n", "2"]) == 2


def _assert_usage_error(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("command", ["lm-cells", "standard-symbols", "canonical-basis"])
def test_cli_charges_required(command, capsys):
    _assert_usage_error([command, "--n", "2"], capsys)


@pytest.mark.parametrize("c0", ["1/0", "abc"])
def test_cli_zero_denominator(c0, capsys):
    error = _assert_usage_error(["check", "--r", "1,0", "--c0", c0, "--n", "2"], capsys)
    assert error.startswith(f"error: cannot parse --c0 {c0!r}")


def test_cli_standard_symbols_json_lists_the_text_order(capsys):
    argv = ["standard-symbols", "--r=2,0", "--n", "3"]
    assert cli_main(argv) == 0
    text = capsys.readouterr().out
    assert cli_main([*argv, "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["2"][:2] == ["2|∅", "1.1|∅"]
    lines = [f"height {h}: {', '.join(syms)}" for h, syms in obj.items()]
    assert lines == text.splitlines()


def test_cli_negative_n_canonical_basis(capsys):
    _assert_usage_error(["canonical-basis", "--r", "1,0", "--n", "-1"], capsys)


def test_cli_negative_n_lm_cells(capsys):
    _assert_usage_error(["lm-cells", "--r", "1,0", "--n", "-2"], capsys)


def test_cli_out_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "f"
    _assert_usage_error(
        ["dpartitions", "--d", "1", "--n", "1", "--out", str(target)], capsys
    )
    assert not target.parent.exists()


def test_cli_out_missing_directory_fails_before_computing(
    tmp_path, monkeypatch, capsys
):
    def fail(*args, **kwargs):
        raise AssertionError("canonical_basis ran before --out was checked")

    monkeypatch.setattr(cli, "canonical_basis", fail)
    target = tmp_path / "missing" / "f"
    _assert_usage_error(
        ["canonical-basis", "--r", "1,1,0", "--n", "10", "--out", str(target)], capsys
    )


def test_cli_out_directory_fails_before_computing(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("jm_cellular_characters ran before --out was checked")

    monkeypatch.setattr(cli, "jm_cellular_characters", fail)
    error = _assert_usage_error(
        ["jm-cells", "--k=1", "--c0", "1", "--n", "3", "--out", str(tmp_path)], capsys
    )
    assert error == f"error: cannot write --out {tmp_path}: Is a directory"


@pytest.mark.parametrize("index", [["--i", "1"], ["--j", "2"]])
def test_cli_gaudin_has_no_index_options(index, capsys):
    # gaudin-verify verifies every pair, so no option picks one
    assert cli_main(["gaudin-verify", "--r", "2,1,0", "--c0", "1", *index]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: unrecognized arguments: {' '.join(index)}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["jm-cells", "--c0", "1", "--n", "3"],
        ["check", "--c0", "1", "--n", "3"],
        ["cm-cells-n2", "--c0", "1"],
        ["gaudin-verify", "--c0", "1"],
    ],
    ids=["jm-cells", "check", "cm-cells-n2", "gaudin-verify"],
)
def test_cli_d_disagreeing_with_r(argv, capsys):
    # d is the number of --k or --r entries, so there is no --d to disagree
    for source in ("--k=-1,0", "--r=1,0"):
        for d in ("2", "3"):
            assert cli_main([*argv, source, "--d", d]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --d" in captured.err


@pytest.mark.parametrize("command", ["jm-cells", "check"])
def test_cli_k_and_r_together(command, capsys):
    _assert_usage_error(
        [command, "--k=-1,0", "--r=1,0", "--c0", "1", "--n", "3"], capsys
    )


def test_cli_unsorted_ratios_message_states_the_rule_it_prints(capsys):
    assert cli_main(["check", "--k=0,-1", "--c0", "1", "--n", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: charges -ksharp_i / c0 must be weakly decreasing, got 0, 1\n"
    )


@pytest.mark.parametrize("shape", ["x", "2|1.a"])
def test_cli_tableaux_shape_error_names_the_flag_and_text(shape, capsys):
    assert cli_main(["tableaux", "--shape", shape]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse --shape {shape!r}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "shape, comp", [("1.2", "(1, 2)"), ("0", "(0,)"), ("2|-1", "(-1,)")]
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_tableaux_shape_must_be_partitions(shape, comp, fmt, capsys):
    assert cli_main(["tableaux", "--shape", shape, "--format", fmt]) == 2
    assert capsys.readouterr() == (
        "",
        f"error: cannot parse --shape {shape!r}: invalid partition component {comp}\n",
    )


@pytest.mark.parametrize("shape", ["1|∅", ""])
@pytest.mark.parametrize(
    "sizes", [["--d", "3"], ["--n", "4"], ["--d", "3", "--n", "4"]]
)
def test_cli_tableaux_shape_with_d_or_n(sizes, shape, capsys):
    _assert_usage_error(["tableaux", "--shape", shape, *sizes], capsys)


def test_cli_tableaux_empty_shape_is_the_empty_dpartition(capsys):
    assert cli_main(["tableaux", "--shape", ""]) == 0
    text = capsys.readouterr().out
    assert cli_main(["tableaux", "--shape", "∅"]) == 0
    assert capsys.readouterr().out == text


def _assert_internal_error(argv, capsys, name):
    # exit 1 means "sets unequal", so a crash exits 3 with its traceback
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.splitlines()[-1].startswith(f"internal error: {name}: ")


def test_cli_crash_exits_3(monkeypatch, capsys):
    def crashing(shape):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "standard_tableaux", crashing)
    _assert_internal_error(["tableaux", "--shape", "2|1"], capsys, "RecursionError")


def test_cli_tableaux_of_a_thousand_boxes(capsys):
    assert cli_main(["tableaux", "--shape", "1100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1100  (1 tableaux)"
    assert len(lines) == 2 and lines[1].endswith(" -> (1,1100,1)")


def test_cli_lattice_violation_exits_3(monkeypatch, capsys):
    def violating(params, n):
        raise LatticeViolation("coefficient outside the lattice")

    monkeypatch.setattr(cli, "check_conjecture", violating)
    argv = ["check", "--r=1,0", "--c0", "1", "--n", "2"]
    _assert_internal_error(argv, capsys, "LatticeViolation")


def test_cli_missing_bead_exits_3(monkeypatch, capsys):
    # a row that claims a bead it lacks breaks the bead mechanics' own
    # guarantee, so it is a bug, not bad input
    original = fock._row_eps

    def claiming(charge, parts, m):
        e = original(charge, parts, m)
        return 1 if m == 0 and e == 0 else e

    monkeypatch.setattr(fock, "_row_eps", claiming)
    assert not issubclass(MissingBead, ValueError)
    argv = ["canonical-basis", "--r=1,0", "--n", "3"]
    _assert_internal_error(argv, capsys, "MissingBead")


def test_cli_shift_with_r(capsys):
    # a common shift of the charges changes only labels, so check has no --shift
    for source in ("--k=-1,0", "--r=1,0"):
        assert cli_main(["check", source, "--c0", "1", "--n", "3", "--shift", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --shift 2" in captured.err


def test_package_exports_no_submodule():
    import types

    import wreathcells

    for name in wreathcells.__all__:
        assert not isinstance(getattr(wreathcells, name), types.ModuleType), name


def test_cli_lm_cells_text(capsys):
    assert cli_main(["lm-cells", "--r", "0,0", "--n", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3


def test_cli_out_file(tmp_path):
    target = tmp_path / "cells.json"
    code = cli_main(
        [
            "jm-cells",
            "--c0",
            "1",
            "--k=-1,0",
            "--n",
            "2",
            "--format",
            "json",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    obj = json.loads(target.read_text())
    assert len(obj["cells"]) == 4


def test_cli_gaudin(capsys):
    code = cli_main(["gaudin-verify", "--c0", "1", "--k", "0,0", "--format", "json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj[0]["ok"] is True


def test_cli_dpartitions(capsys):
    assert cli_main(["dpartitions", "--d", "2", "--n", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["2|∅", "1.1|∅", "1|1", "∅|2", "∅|1.1"]
