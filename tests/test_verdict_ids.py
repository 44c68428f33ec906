"""Characters as IdCounts from both layers to the verdict.

`helpers.check_by_character_sums`, the verdict with every character a
validated `CharacterSum`, is the oracle for every field of
`check_conjecture_sizes`, in order, rendered by `helpers.rendered_verdict`;
for the `check --format json` document that `cli._check_document` makes of
each verdict, multisets included; and for the text listing of `check`.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import wreathcells
import wreathcells.cli as cli
import wreathcells.conjecture as conjecture
import wreathcells.fock as fock
from helpers import check_by_character_sums, rendered_verdict
from wreathcells import (
    FockVector,
    MalformedCharacter,
    NegativeMultiplicity,
    check_conjecture,
    check_conjecture_sizes,
    enumerate_dpartitions,
    jm_cellular_characters,
    params_from_r,
    q,
)
from wreathcells.cli import cli_main
from wreathcells.fock import lm_constructible

FIELDS = "mode n charges equal cm_counts lm_counts cm_only lm_only note".split()


def _battery(max_d, max_n, max_charge):
    """The sweep's built-in battery, one (charges, c0, sizes) per charge vector."""
    return [
        (combo + (0,), 1, tuple(range(2, max_n + 1)))
        for d in range(1, max_d + 1)
        for combo in itertools.combinations_with_replacement(
            range(max_charge, -1, -1), d - 1
        )
    ]


HALF = Fraction(-1, 2)
POINTS = _battery(3, 6, 3) + [
    ((1, 0), 1, (0, 1, 4)),
    ((1, 1, 0), 1, (0, 1, 2)),
    ((0, 0, 0, 0), 1, (0, 1)),
    ((3,), 1, (0, 1, 2, 3, 4, 5, 6, 7)),
    ((2,), HALF, (2, 3, 4, 5)),
    ((2, 0), HALF, (2, 3, 4, 5, 6)),
    ((1, 1, 0), HALF, (2, 3, 4, 5)),
    ((14, 7, 0), 1, (2, 3, 4)),
]
EACH_POINT = pytest.mark.parametrize(
    "charges, c0, sizes", POINTS, ids=[f"{r}-c0={c0}" for r, c0, _ in POINTS]
)


@functools.cache
def _verdicts(charges, c0, sizes):
    """The verdicts of `check_conjecture_sizes` and of the oracle, in order."""
    params = params_from_r(charges, c0)
    got = check_conjecture_sizes(params, sizes)
    want = check_by_character_sums(params, sizes)
    assert len(got) == len(want)
    return got, want


@EACH_POINT
def test_verdict_matches_character_sum_oracle(charges, c0, sizes):
    for verdict, expected in zip(*_verdicts(charges, c0, sizes)):
        view = rendered_verdict(verdict)
        for name in FIELDS:
            value, oracle = getattr(view, name), getattr(expected, name)
            if isinstance(oracle, dict):
                assert list(value.items()) == list(oracle.items()), name
            else:
                assert value == oracle, name
        # the sweep's row reads the id counts
        assert len(verdict.cm_ids) == len(expected.cm_counts)
        assert len(verdict.lm_ids) == len(expected.lm_counts)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_json(SimpleNamespace(out=None), cli._check_document(verdict))
        assert out.getvalue() == json.dumps(expected.to_json_obj(), indent=2) + "\n"


@EACH_POINT
def test_text_check_matches_character_sum_oracle(
    charges, c0, sizes, monkeypatch, capsys
):
    got, want = _verdicts(charges, c0, sizes)
    params, by_size = params_from_r(charges, c0), {v.n: v for v in got}

    def checked(asked, n):
        assert asked == params
        return by_size[n]

    # text `check` renders the verdicts that the field-by-field test compares
    monkeypatch.setattr(cli, "check_conjecture", checked)
    r = ",".join(map(str, charges))
    for expected in want:
        argv = ["check", f"--r={r}", f"--c0={c0}", "--n", str(expected.n)]
        assert cli_main(argv) == (0 if expected.equal else 1)
        assert capsys.readouterr().out == expected.text_listing()


@EACH_POINT
def test_cells_list_the_character_counts(charges, c0, sizes):
    # `.cells` lists each final state's ids, once per path into it
    dec = jm_cellular_characters(params_from_r(charges, c0), max(sizes))
    assert Counter(ids for _, ids in dec.cells) == dec.character_counts()


def test_library_has_one_character_type():
    # the `CharacterSum` oracle lives in the tests alone, and a d-partition
    # is the tuple of its components: no shape class is named or exported
    root = Path(__file__).resolve().parents[1]
    sources = [*(root / "src" / "wreathcells").glob("*.py")]
    sources += (root / "scripts").glob("*.py")
    assert len(sources) > 8
    absent = "CharacterSum DPartition dpartition_sort_key addable_boxes".split()
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for name in absent:
            assert name not in text, (path.name, name)
    # only the tests and perfbench's tracing reach these, through `fock`
    fock_only = "crystal_f divided_power_f f_action intermediate_A lt_monomial".split()
    for name in ("CharacterSum", "DPartition", "addable_boxes", *fock_only):
        assert not hasattr(wreathcells, name) and name not in wreathcells.__all__
    assert all(callable(getattr(fock, name)) for name in fock_only)


def _patch_one_coefficient(monkeypatch, coeff, height=4):
    """Replace one non-leading coefficient of a basis vector of this height.

    Returns the patched vector's symbol and the term whose coefficient changed.
    """
    original = fock.canonical_basis
    chosen = {}

    def patched(charges, n, **kwargs):
        basis = dict(original(charges, n, **kwargs))
        sym = next(
            s for s, v in basis.items() if s.height == height and len(v.terms) > 1
        )
        terms = dict(basis[sym].terms)
        term = next(s for s in terms if s != sym)
        terms[term] = coeff
        basis[sym] = FockVector(terms)
        chosen.update(sym=sym, term=term)
        return basis

    monkeypatch.setattr(fock, "canonical_basis", patched)
    return chosen


def test_negative_multiplicity_raises_on_the_check_path(monkeypatch, capsys):
    _patch_one_coefficient(monkeypatch, -q(1))
    params = params_from_r((1, 1, 0), 1)
    with pytest.raises(NegativeMultiplicity, match="negative at q = 1"):
        check_conjecture(params, 4)
    with pytest.raises(NegativeMultiplicity):
        check_conjecture_sizes(params, (2, 3, 4))
    assert issubclass(NegativeMultiplicity, ValueError)
    # a basis vector that is not a character is a bug, so not a usage error
    assert cli_main(["check", "--r=1,1,0", "--c0", "1", "--n", "4"]) == 3
    assert "internal error: NegativeMultiplicity" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_malformed_character_is_an_internal_error(monkeypatch, capsys, fmt):
    # LM tuples left unsorted break the `IdCounts` invariant when rendered
    original = conjecture.lm_constructible

    def unsorted(charges, sizes):
        return {
            n: {sym: ids[::-1] for sym, ids in chars.items()}
            for n, chars in original(charges, sizes).items()
        }

    monkeypatch.setattr(conjecture, "lm_constructible", unsorted)
    assert issubclass(MalformedCharacter, ValueError)
    argv = ["check", "--r=1,1,0", "--c0", "1", "--n", "4", "--format", fmt]
    assert cli_main(argv) == 3
    assert (
        "internal error: MalformedCharacter: entries must be strictly sorted"
        in capsys.readouterr().err
    )


def test_zero_multiplicity_at_one_is_dropped(monkeypatch):
    charges = (1, 1, 0)
    before = lm_constructible(charges, (4,))[4]
    chosen = _patch_one_coefficient(monkeypatch, q(1) - q(2))
    after = lm_constructible(charges, (4,))[4]
    index = {dp: i for i, dp in enumerate(enumerate_dpartitions(3, 4))}
    dropped = index[chosen["term"].rows]
    sym = chosen["sym"]
    assert dropped in dict(before[sym])
    assert after[sym] == tuple((i, m) for i, m in before[sym] if i != dropped)
    assert {s: ids for s, ids in after.items() if s != sym} == {
        s: ids for s, ids in before.items() if s != sym
    }
    check_conjecture(params_from_r(charges, 1), 4)


def test_negative_multiplicity_survives_optimize():
    # `python -O` strips asserts, so the check must not be one
    script = textwrap.dedent(
        """
        import wreathcells.fock as fock
        from wreathcells import FockVector, NegativeMultiplicity, q
        original = fock.canonical_basis

        def patched(charges, n):
            basis = dict(original(charges, n))
            sym = next(s for s, v in basis.items() if s.height == n and len(v.terms) > 1)
            terms = dict(basis[sym].terms)
            terms[next(s for s in terms if s != sym)] = -q(1)
            basis[sym] = FockVector(terms)
            return basis

        fock.canonical_basis = patched
        try:
            fock.lm_constructible((1, 1, 0), (4,))
        except NegativeMultiplicity:
            raise SystemExit(0)
        raise SystemExit(1)
        """
    )
    src = str(Path(fock.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": src}
    )
    assert result.returncode == 0
