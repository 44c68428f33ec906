import copy
import os
import pickle
import re
import subprocess
import sys
import textwrap
import warnings
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wreathcells.fock as fock
from helpers import (
    CharacterSum,
    beta,
    canonical_basis_from_monomials,
    candidate_nodes,
    crystal_closure,
    divided_power_oracle,
    dpartition_from_symbol,
    e_action,
    filtered_standard_symbols,
    height2_characters,
    height2_monomials_at_one,
    in_q_zq,
    parse_laurent,
    peel_step_by_weights,
    rendered_lm,
    replayed_monomial,
    row_eps,
    row_move_down,
    row_move_up,
    sym_one,
    sym_pair,
    sym_prime,
    symbol_from_dpartition,
    weight,
)
from wreathcells.combinatorics import DPartition, enumerate_dpartitions
from wreathcells.conjecture import check_conjecture_sizes, params_from_r
from wreathcells.fock import (
    FockVector,
    LatticeViolation,
    LeadingTermMismatch,
    NonTerminating,
    PositivityWarning,
    Symbol,
    canonical_basis,
    crystal_f,
    crystal_signature,
    divided_power_f,
    enumerate_standard_symbols,
    f_action,
    highest_weight_symbol,
    intermediate_A,
    lm_constructible,
    lt_monomial,
    _row_eps,
    _row_move,
    _unchecked_symbol,
)
from wreathcells.laurent import LaurentPoly, one, q


def sym(charges, *rows):
    return Symbol(tuple(charges), tuple(tuple(r) for r in rows))


def vec(mapping):
    return FockVector({s: parse_laurent(c) for s, c in mapping.items()})


charges_st = st.lists(st.integers(-2, 3), min_size=1, max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def random_symbols(max_height=4):
    def build(draw_data):
        charges, index = draw_data
        pool = []
        for h in range(max_height + 1):
            for dpart in enumerate_dpartitions(len(charges), h):
                pool.append(symbol_from_dpartition(dpart, charges))
        return pool[index % len(pool)]

    return st.tuples(charges_st, st.integers(0, 10_000)).map(build)


# Row bead mechanics against the membership oracle


@st.composite
def random_rows(draw):
    """(charge, displacement partition), negative charges included."""
    charge = draw(st.integers(-4, 4))
    parts = draw(st.lists(st.integers(1, 5), max_size=5))
    return charge, tuple(sorted(parts, reverse=True))


@given(random_rows(), st.integers(-3, 12))
def test_row_mechanics_match_oracle(row, offset):
    charge, parts = row
    top = charge - len(parts)
    for m in (top, top + offset):
        eps = _row_eps(charge, parts, m)
        assert eps == row_eps(charge, parts, m)
        if eps == 1:
            assert _row_move(charge, parts, m, 1) == row_move_up(charge, parts, m)
        elif eps == -1:
            assert _row_move(charge, parts, m + 1, -1) == row_move_down(charge, parts, m)


# Symbol / d-partition bijection


def test_symbol_baseline_beads():
    s0 = highest_weight_symbol((1, 0))
    assert s0.height == 0
    assert [beta(s0, 1, k) for k in range(-3, 2)] == [-3, -2, -1, 0, 1]


def test_symbol_beads_displaced():
    s = symbol_from_dpartition(DPartition(((1, 1), ())), (1, 0))
    assert beta(s, 1, 1) == 2 and beta(s, 1, 0) == 1
    assert beta(s, 1, -1) == -1
    assert s.height == 2


def test_symbol_validates_rows_from_outside():
    with pytest.raises(ValueError):
        sym((1, 0), (1, 2), ())


def test_symbol_rejects_row_out_of_range():
    s = sym((1, 0), (1,), ())
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match=f"no row {i} "):
            beta(s, i, 0)
    assert beta(s, 2, 0) == 0


def test_symbol_value_semantics_with_slots():
    s = sym((1, 0), (2, 1), ())
    fast = _unchecked_symbol((1, 0), ((2, 1), ()))
    assert not hasattr(s, "__dict__")
    assert s == fast and hash(s) == hash(fast)
    assert {s: 1}[fast] == 1
    assert hash(s) == hash((s.charges, s.rows))
    for back in (
        pickle.loads(pickle.dumps(s)),
        pickle.loads(pickle.dumps(fast)),
        copy.copy(s),
        copy.deepcopy(s),
    ):
        assert back == s and hash(back) == hash(s) and type(back) is Symbol
    assert pickle.dumps(s) == pickle.dumps(fast)
    assert Symbol._fields == ("charges", "rows")
    with pytest.raises(AttributeError):
        s.rows = ((), ())
    with pytest.raises(AttributeError):
        s.other = 1
    with pytest.raises(ValueError, match="weakly decreasing"):
        Symbol((0, 1), ((), ()))
    assert repr(s) == "Symbol(r=1,0; 2.1|∅)"


@given(random_symbols())
def test_symbol_round_trip(s):
    assert symbol_from_dpartition(dpartition_from_symbol(s), s.charges) == s


@given(random_symbols())
def test_beads_strictly_increase(s):
    for i in range(1, s.d + 1):
        r = s.charges[i - 1]
        values = [beta(s, i, k) for k in range(r - 6, r + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))


# Chevalley actions


def test_f_highest_weight_tensor_rule():
    # two rows of equal charge: F on the highest weight vector weights the
    # first row by q and the last by 1
    out = f_action(1, FockVector.unit(highest_weight_symbol((1, 1))))
    assert out == vec({sym((1, 1), (1,), ()): "q", sym((1, 1), (), (1,)): "1"})


def test_f_on_height_one_mixed_charges():
    out = f_action(0, FockVector.unit(sym((1, 0), (1,), ())))
    assert out == vec({sym((1, 0), (1, 1), ()): "q", sym((1, 0), (1,), (1,)): "1"})


def test_f_vanishes_without_movable_bead():
    s0 = highest_weight_symbol((2, 0))
    for m in (-1, 1, 3, 5):
        assert f_action(m, FockVector.unit(s0)).is_zero()


@given(random_symbols(max_height=3), st.integers(-3, 4))
def test_f_action_weight_and_height(s, m):
    out = f_action(m, FockVector.unit(s))
    weights = {weight(t) for t in out.terms}
    assert len(weights) <= 1
    for t in out.terms:
        assert t.height == s.height + 1


def test_e_kills_highest_weight():
    s0 = highest_weight_symbol((2, 1, 0))
    for m in range(-4, 5):
        assert e_action(m, FockVector.unit(s0)).is_zero()


def test_ef_commutation_on_two_string():
    # E_1 F_1 applied to the doubly lowerable highest weight vector gives [2]
    s0 = highest_weight_symbol((1, 1))
    out = e_action(1, f_action(1, FockVector.unit(s0)))
    assert out == FockVector({s0: q() + q(-1)})


def test_e_vanishes_without_higher_bead():
    assert e_action(5, FockVector.unit(sym((1, 0), (2,), ()))).is_zero()


def test_divided_square():
    out = divided_power_f(1, 2, FockVector.unit(highest_weight_symbol((1, 1))))
    assert out == vec({sym((1, 1), (1,), (1,)): "1"})


@given(random_symbols(max_height=2), st.integers(-2, 3))
def test_divided_power_mult_one_is_f(s, m):
    unit = FockVector.unit(s)
    assert divided_power_f(m, 1, unit) == f_action(m, unit)


def test_divided_cube():
    unit = FockVector.unit(highest_weight_symbol((0, 0, 0)))
    out = divided_power_f(0, 3, unit)
    assert out == vec({sym((0, 0, 0), (1,), (1,), (1,)): "1"})
    # cross-check against the raw cube divided by [3]!
    assert divided_power_oracle(0, 3, unit) == out


@st.composite
def lowering_cases(draw):
    """(m, k, vec): a multi-term vector, d = 1..5, charges -3..3, height <= 4.

    k runs up to d, so it often exceeds the rows lowerable at m.  The node is
    mostly one where some support symbol is lowerable.
    """
    d = draw(st.integers(1, 5))
    charges = tuple(
        sorted(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), reverse=True)
    )
    pool = [dp for h in range(5) for dp in enumerate_dpartitions(d, h)]
    coeff = st.dictionaries(
        st.integers(-3, 3),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=3,
    ).map(LaurentPoly)
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), coeff), min_size=1, max_size=5))
    v = FockVector({symbol_from_dpartition(dp, charges): c for dp, c in picks})
    nodes = sorted({m for s in v.terms for m in candidate_nodes(s)})
    m = draw(st.one_of(st.sampled_from(nodes), st.integers(-8, 8)))
    return m, draw(st.integers(1, d)), v


@settings(deadline=None, max_examples=300)
@given(lowering_cases())
def test_divided_power_matches_oracle(case):
    m, k, v = case
    assert divided_power_f(m, k, v) == divided_power_oracle(m, k, v)


# Vectors whose rows repeat: equal partitions under different charges are
# different rows, and equal rows under equal charges share their bead move.
ROW_SHARING_VECTORS = [
    FockVector({sym((2, 0), (1,), (1,)): one()}),
    FockVector(
        {sym((3, 1, 0), (1,), (1,), (1,)): one(), sym((3, 1, 0), (), (1,), (1,)): q()}
    ),
    FockVector(
        {
            sym((0, 0, 0), (1,), (1,), ()): one(),
            sym((0, 0, 0), (1,), (), (1,)): q(),
            sym((0, 0, 0), (2,), (1,), (1,)): q(2),
            sym((0, 0, 0), (1,), (1,), (1,)): q(-1),
        }
    ),
]


@pytest.mark.parametrize("v", ROW_SHARING_VECTORS, ids=["r=2,0", "r=3,1,0", "r=0,0,0"])
def test_divided_power_on_shared_rows_matches_oracle(v):
    nodes = sorted({m for s in v.terms for m in candidate_nodes(s)})
    d = len(next(iter(v.terms)).charges)
    for m in nodes:
        for k in range(1, d + 1):
            assert divided_power_f(m, k, v) == divided_power_oracle(m, k, v), (m, k)


# Defining relations of the quantum group, verified on the module.  These
# pin down the comultiplication exponents independently of any example.


def _q_bracket(w):
    # (q^w - q^-w) / (q - q^-1) as a Laurent polynomial, sign included
    if w == 0:
        return parse_laurent("0")
    mag = parse_laurent("+".join(f"q^{abs(w) - 1 - 2 * t}" for t in range(abs(w))))
    return mag if w > 0 else parse_laurent("0") - mag


@given(random_symbols(max_height=3), st.integers(-2, 3))
def test_serre_degree_two(s, i):
    j = i + 1
    v = FockVector.unit(s)
    lhs = (
        f_action(i, f_action(i, f_action(j, v)))
        - f_action(i, f_action(j, f_action(i, v))).scale(q() + q(-1))
        + f_action(j, f_action(i, f_action(i, v)))
    )
    assert lhs.is_zero()


@given(random_symbols(max_height=3), st.integers(-2, 2))
def test_distant_f_commute(s, i):
    j = i + 2
    v = FockVector.unit(s)
    assert f_action(i, f_action(j, v)) == f_action(j, f_action(i, v))


@given(random_symbols(max_height=3), st.integers(-2, 3), st.integers(-2, 3))
def test_ef_commutation(s, i, j):
    v = FockVector.unit(s)
    lhs = e_action(i, f_action(j, v)) - f_action(j, e_action(i, v))
    if i != j:
        assert lhs.is_zero()
    else:
        weight = sum(_row_eps(r, parts, i) for r, parts in zip(s.charges, s.rows))
        assert lhs == v.scale(_q_bracket(weight))


# Crystal operator


def test_crystal_examples():
    st1 = sym((1, 0), (1,), ())
    assert crystal_f(0, st1) == sym((1, 0), (1,), (1,))
    assert crystal_f(1, st1) is None


def test_crystal_acts_on_last_row_of_block():
    s0 = highest_weight_symbol((2, 1, 1, 0))
    assert crystal_f(1, s0) == sym((2, 1, 1, 0), (), (), (1,), ())
    assert crystal_f(2, s0) == sym((2, 1, 1, 0), (1,), (), (), ())


def test_crystal_cancellation():
    # lowerable row 1, raiseable row 2: the pair does not cancel, row 1 acts
    tilde2 = sym((0, 0), (), (1,))
    assert crystal_f(0, tilde2) == sym((0, 0), (1,), (1,))
    # raiseable row immediately before lowerable row cancels
    tilde1 = sym((0, 0), (1,), ())
    assert crystal_f(0, tilde1) is None


@given(random_symbols(max_height=3), st.integers(-3, 4))
def test_crystal_survivor_exponent(s, m):
    row, surviving_plus = crystal_signature(m, s)
    if row is None:
        return
    eps = [_row_eps(r, parts, m) for r, parts in zip(s.charges, s.rows)]
    assert sum(eps[row + 1 :]) == -surviving_plus
    if surviving_plus == 0:
        image = crystal_f(m, s)
        coeff = f_action(m, FockVector.unit(s)).coefficient(image)
        assert coeff.constant_term() == 1


# Standard symbols


def test_standard_symbols_gap_one():
    comp = enumerate_standard_symbols((1, 0), 2)
    assert comp.by_height[0] == frozenset([highest_weight_symbol((1, 0))])
    assert comp.by_height[1] == frozenset(
        [sym((1, 0), (1,), ()), sym((1, 0), (), (1,))]
    )
    assert comp.by_height[2] == frozenset(
        [
            sym_pair((1, 0), 1, 2),
            sym_one((1, 0), 1),
            sym_one((1, 0), 2),
            sym_prime((1, 0), 2),
        ]
    )


def test_standard_symbols_match_crystal_closure():
    # 330 charge vectors, 1,823 (charges, n) points
    for d, n in zip(range(1, 6), (9, 8, 6, 5, 4)):
        for head in combinations_with_replacement(range(6, -1, -1), d - 1):
            charges = head + (0,)
            comp = enumerate_standard_symbols(charges, n)
            assert comp.by_height == crystal_closure(charges, n), charges


@pytest.mark.parametrize(
    "charges,n",
    [
        ((0,), 12),  # d = 1: every partition
        ((5, 5, 0, 0, 0), 5),  # equal charges nest their rows
        ((9, 0), 6),  # a gap larger than n bounds nothing
        ((2, 1, 0), 0),  # n = 0: the highest weight alone
        ((1, 1, 0, 0), 11),  # beyond crystal_closure's range
    ],
)
def test_standard_symbols_match_filtered_dpartitions(charges, n):
    comp = enumerate_standard_symbols(charges, n)
    assert comp.by_height == filtered_standard_symbols(charges, n)


@st.composite
def gapped_symbols(draw):
    """A symbol of height <= 6 with random charge gaps and rows, d <= 3."""
    gaps = draw(st.lists(st.integers(0, 4), max_size=2))
    charges = [draw(st.integers(-2, 2))]
    for g in gaps:
        charges.insert(0, charges[0] + g)
    rows = tuple(
        tuple(sorted(draw(st.lists(st.integers(1, 3), max_size=3)), reverse=True))
        for _ in charges
    )
    s = Symbol(tuple(charges), rows)
    assume(s.height <= 6)
    return s


@settings(max_examples=60, deadline=None)
@given(gapped_symbols())
def test_column_rule_on_random_rows(s):
    h = s.height
    standard = s in enumerate_standard_symbols(s.charges, h).by_height[h]
    low = min(s.charges) - h - 1  # below this every bead is undisplaced
    beads_increase = all(
        beta(s, i, k) <= beta(s, i + 1, k)
        for i in range(1, s.d)
        for k in range(low, s.charges[i] + 1)
    )
    assert standard == beads_increase == (s in crystal_closure(s.charges, h)[h])


@pytest.mark.parametrize("charges,n", [((0, 0, 0), 5), ((2, 2), 6)])
def test_equal_charges_nest_rows(charges, n):
    def inside(a, b):
        return len(a) <= len(b) and all(p <= q for p, q in zip(a, b))

    comp = enumerate_standard_symbols(charges, n)
    for h in range(n + 1):
        nested = {
            symbol_from_dpartition(dp, charges)
            for dp in enumerate_dpartitions(len(charges), h)
            if all(map(inside, dp.components, dp.components[1:]))
        }
        assert comp.by_height[h] == nested


def test_lm_pipeline_calls_no_crystal_operator(monkeypatch):
    def refuse(*_):
        raise AssertionError("a crystal operator was called")

    standard = sum(map(len, crystal_closure((1, 1, 0), 6)))
    monkeypatch.setattr(fock, "crystal_f", refuse)
    monkeypatch.setattr(fock, "crystal_signature", refuse)
    assert len(canonical_basis((1, 1, 0), 6)) == standard
    verdicts = check_conjecture_sizes(params_from_r((1, 1, 0), 1), (3, 4, 5))
    assert [v.n for v in verdicts] == [3, 4, 5]


@pytest.mark.parametrize("charges,n", [((3, 0), 3), ((4, 2, 0), 2), ((1, 0), -1)])
def test_standard_symbols_asymptotic_complete(charges, n):
    if n < 0:
        for build in (enumerate_standard_symbols, canonical_basis):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                build(charges, n)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            lm_constructible(charges, (n,))
        return
    comp = enumerate_standard_symbols(charges, n)
    for h in range(n + 1):
        assert len(comp.by_height[h]) == len(enumerate_dpartitions(len(charges), h))


@pytest.mark.parametrize("charges", [(1, 1, 0), (2, 0), (0, 0, 0, 0)])
def test_standard_symbols_height_one_is_block_ends(charges):
    comp = enumerate_standard_symbols(charges, 1)
    from helpers import blocks_of

    expected = set()
    for rows, _ in blocks_of(charges):
        s = [()] * len(charges)
        s[rows[-1] - 1] = (1,)
        expected.add(Symbol(tuple(charges), tuple(s)))
    assert comp.by_height[1] == frozenset(expected)


@pytest.mark.parametrize(
    "charges", [(1, 0), (0, 0), (2, 0), (1, 1, 0), (2, 2, 1, 0), (0, 0, 0)]
)
def test_standard_symbols_height_two_closed_form(charges):
    comp = enumerate_standard_symbols(charges, 2)
    assert comp.by_height[2] == frozenset(height2_monomials_at_one(charges))


# Peeling and monomials


def test_peel_parents_are_standard():
    # canonical_basis starts b(sym) from the vector of sym's peel parent
    for d in range(1, 5):
        for charges in combinations_with_replacement(range(2, -1, -1), d):
            comp = enumerate_standard_symbols(charges, 5)
            standard = comp.all_symbols()
            for layer in comp.by_height[1:]:
                for s in layer:
                    _, parent = fock._peel_step(s)
                    assert parent in standard and parent.height < s.height


def test_lt_monomial_trivial():
    assert lt_monomial(highest_weight_symbol((1, 0))) == ()


def test_lt_monomial_single_column_word():
    assert lt_monomial(sym_one((0, 0), 2)) == ((1, 1), (0, 1))


def test_lt_monomial_divided_square():
    assert lt_monomial(sym_pair((1, 1), 1, 2)) == ((1, 2),)


def test_intermediate_monomials_gap_one():
    a = intermediate_A(sym_pair((1, 0), 1, 2))
    assert a == vec({sym_pair((1, 0), 1, 2): "1", sym_prime((1, 0), 1): "q"})
    a = intermediate_A(sym_one((0, 0), 2))
    assert a == vec({sym_one((0, 0), 2): "1", sym_one((0, 0), 1): "q"})


@pytest.mark.parametrize("charges,n", [((2, 0), 2), ((5, 0), 3)])
def test_intermediate_asymptotic_is_unit(charges, n):
    comp = enumerate_standard_symbols(charges, n)
    for layer in comp.by_height:
        for s in layer:
            assert intermediate_A(s) == FockVector.unit(s)


def test_intermediate_matches_replayed_word():
    comp = enumerate_standard_symbols((1, 1, 0), 5)
    for s in comp.all_symbols():
        assert intermediate_A(s) == replayed_monomial(s)


def test_leading_term_guard_fires_off_component():
    # a symbol outside the crystal component whose peel word leads elsewhere
    stray = sym((0, 0, 0), (1,), (), (1,))
    with pytest.raises(LeadingTermMismatch):
        intermediate_A(stray)


# Canonical basis


def test_canonical_basis_gap_one_exact():
    basis = canonical_basis((1, 0), 2)
    expected = {
        highest_weight_symbol((1, 0)): vec({highest_weight_symbol((1, 0)): "1"}),
        sym((1, 0), (1,), ()): vec({sym((1, 0), (1,), ()): "1"}),
        sym((1, 0), (), (1,)): vec({sym((1, 0), (), (1,)): "1"}),
        sym_pair((1, 0), 1, 2): vec(
            {sym_pair((1, 0), 1, 2): "1", sym_prime((1, 0), 1): "q"}
        ),
        sym_one((1, 0), 1): vec({sym_one((1, 0), 1): "1"}),
        sym_one((1, 0), 2): vec(
            {sym_one((1, 0), 2): "1", sym_pair((1, 0), 1, 2): "q"}
        ),
        sym_prime((1, 0), 2): vec({sym_prime((1, 0), 2): "1"}),
    }
    assert basis == expected


def test_canonical_basis_equal_charges():
    basis = canonical_basis((0, 0), 2)
    assert basis[sym_one((0, 0), 2)] == vec(
        {sym_one((0, 0), 2): "1", sym_one((0, 0), 1): "q"}
    )
    assert basis[sym_pair((0, 0), 1, 2)] == vec({sym_pair((0, 0), 1, 2): "1"})
    assert basis[sym_prime((0, 0), 2)] == vec(
        {sym_prime((0, 0), 2): "1", sym_prime((0, 0), 1): "q"}
    )


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (3, 3)])
def test_canonical_basis_asymptotic(d, n):
    # consecutive gaps >= n force every vector to collapse to its symbol
    charges = tuple(n * (d - 1 - i) for i in range(d))
    basis = canonical_basis(charges, n)
    for s, v in basis.items():
        assert v == FockVector.unit(s)


def test_canonical_basis_correction_case():
    # hand-computed instance where the monomial needs one correction step
    basis = canonical_basis((1, 0, 0), 3)
    target = sym((1, 0, 0), (), (1,), (2,))
    expected = vec(
        {
            sym((1, 0, 0), (1,), (1,), (1,)): "q^2",
            sym((1, 0, 0), (), (2,), (1,)): "q",
            target: "1",
        }
    )
    assert basis[target] == expected
    assert intermediate_A(target) != basis[target]


BASIS_BATTERY = [
    ((1, 0), 3),
    ((0, 0), 3),
    ((1, 0, 0), 3),
    ((1, 1, 0), 3),
    ((2, 1, 0), 2),
    ((2, 2, 1, 0), 2),
]


@pytest.mark.parametrize("charges,n", BASIS_BATTERY)
def test_peel_step_matches_weights_oracle(charges, n):
    for s in enumerate_standard_symbols(charges, n).all_symbols():
        assert fock._peel_step(s) == peel_step_by_weights(s), s


@pytest.mark.parametrize("charges,n", BASIS_BATTERY)
def test_canonical_basis_lattice_and_positivity(charges, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = canonical_basis(charges, n)
    standard = set(basis)
    for s, v in basis.items():
        for t in v.terms:
            coeff = v.coefficient(t)
            assert all(c >= 0 for c in coeff.coeffs.values())
            if t == s:
                assert coeff.constant_term() == 1
                assert in_q_zq(coeff - one())
            else:
                assert in_q_zq(coeff)
        for t in standard:
            if t != s:
                assert in_q_zq(v.coefficient(t))
                if t in v.terms:
                    assert fock._rank(t) < fock._rank(s)


def test_canonical_basis_rank_order_is_checked(monkeypatch):
    rank = fock._rank
    monkeypatch.setattr(fock, "_rank", lambda s: tuple(-x for x in rank(s)))
    with pytest.raises(NonTerminating):
        canonical_basis((1, 0, 0), 3)


@pytest.mark.parametrize("charges,n", BASIS_BATTERY)
def test_canonical_basis_order_robust(charges, n):
    assert canonical_basis(charges, n) == canonical_basis(
        charges, n, reverse_ties=True
    )


def test_non_standard_peel_parent_is_named(monkeypatch):
    charges = (0, 0)
    stray = sym(charges, (1,), ())  # not standard: at height 1 only the last row moves
    peel = fock._peel_step

    def to_stray(s):
        step = peel(s)
        return (step[0], stray) if step and step[1].height == 1 else step

    monkeypatch.setattr(fock, "_peel_step", to_stray)
    with pytest.raises(NonTerminating, match=re.escape(f"peels to {stray!r}")):
        canonical_basis(charges, 2)


@pytest.mark.parametrize(
    "charges,n", [((1, 0), 6), ((0, 0, 0), 5), ((1, 1, 0, 0), 4)] + BASIS_BATTERY
)
@pytest.mark.parametrize("reverse_ties", [False, True])
def test_canonical_basis_matches_replayed_monomials(charges, n, reverse_ties):
    # the same basis as the Leclerc-Toffin start from each monomial A(sym)
    assert canonical_basis(
        charges, n, reverse_ties=reverse_ties
    ) == canonical_basis_from_monomials(charges, n, reverse_ties=reverse_ties)


def test_one_divided_power_per_standard_symbol(monkeypatch):
    calls = []
    lower = fock._lower

    def counted(m, mult, v, table):
        calls.append(m)
        return lower(m, mult, v, table)

    monkeypatch.setattr(fock, "_lower", counted)
    basis = canonical_basis((1, 1, 0), 6)
    assert len(calls) == len(basis) - 1  # every symbol but the highest weight


def test_builds_share_no_row_table():
    # each build keeps its own row tables, so neither a later build nor a
    # divided power outside any build sees what an earlier build filled in;
    # the first row's charge differs between the two points
    points = [((1, 1, 0), 4), ((2, 0, 0), 4)]
    top = highest_weight_symbol((1, 1, 0))
    start = divided_power_oracle(1, 2, FockVector.unit(top))  # three rows lowerable at 0
    before = divided_power_f(0, 2, start)
    assert len(before.terms) == 3
    for charges, n in points:
        assert canonical_basis(charges, n) == canonical_basis_from_monomials(charges, n)
    assert divided_power_f(0, 2, start) == before == divided_power_oracle(0, 2, start)


def test_lattice_violation_is_raised():
    s = sym((1, 0), (1,), ())
    t = sym((1, 0), (), (1,))
    with pytest.raises(LatticeViolation):
        fock._check_lattice(s, FockVector({s: one(), t: one()}))
    with pytest.raises(LatticeViolation):
        fock._check_lattice(s, FockVector({s: q()}))


def test_positivity_warning_fires_once_on_a_negative_coefficient():
    s = sym((1, 0), (1,), ())
    t = sym((1, 0), (), (1,))
    minus_q = LaurentPoly({1: -1})
    # one warning per vector, however many of its coefficients are negative
    for v in (
        FockVector({s: one(), t: minus_q}),
        FockVector({s: one() + minus_q, t: minus_q}),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fock._check_lattice(s, v)
        assert [w.category for w in caught] == [PositivityWarning]
        assert f"vector for {s!r} has a negative coefficient" in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fock._check_lattice(s, FockVector({s: one(), t: q()}))
        # a coefficient off the lattice raises before anything is warned
        with pytest.raises(LatticeViolation):
            fock._check_lattice(s, FockVector({s: one(), t: LaurentPoly({0: -1})}))


def test_lattice_violation_survives_optimize():
    # `python -O` strips asserts, so the lattice check must not be one
    script = textwrap.dedent(
        """
        from wreathcells.fock import FockVector, LatticeViolation, Symbol, _check_lattice
        from wreathcells.laurent import one
        s, t = Symbol((1, 0), ((1,), ())), Symbol((1, 0), ((), (1,)))
        try:
            _check_lattice(s, FockVector({s: one(), t: one()}))
        except LatticeViolation:
            raise SystemExit(0)
        raise SystemExit(1)
        """
    )
    src = str(Path(fock.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env={**os.environ, "PYTHONPATH": src}
    )
    assert result.returncode == 0


# Constructible characters


def cs(dparts):
    counts = {}
    for dpart in dparts:
        counts[dpart] = counts.get(dpart, 0) + 1
    return CharacterSum.from_counts(counts)


def chi(d, i):
    comps = [()] * d
    comps[i - 1] = (2,)
    return DPartition(tuple(comps))


def chi_prime(d, i):
    comps = [()] * d
    comps[i - 1] = (1, 1)
    return DPartition(tuple(comps))


def chi_pair(d, i, j):
    comps = [()] * d
    comps[i - 1] = (1,)
    comps[j - 1] = (1,)
    return DPartition(tuple(comps))


def test_lm_gap_one():
    got = frozenset(rendered_lm((1, 0), 2).values())
    expected = frozenset(
        [
            cs([chi(2, 1)]),
            cs([chi_prime(2, 1), chi_pair(2, 1, 2)]),
            cs([chi(2, 2), chi_pair(2, 1, 2)]),
            cs([chi_prime(2, 2)]),
        ]
    )
    assert got == expected


def test_lm_equal_charges():
    got = frozenset(rendered_lm((0, 0), 2).values())
    expected = frozenset(
        [
            cs([chi(2, 1), chi(2, 2)]),
            cs([chi_prime(2, 1), chi_prime(2, 2)]),
            cs([chi_pair(2, 1, 2)]),
        ]
    )
    assert got == expected


def test_lm_asymptotic_all_irreducible():
    got = frozenset(rendered_lm((4, 2, 0), 2).values())
    expected = frozenset(
        cs([dpart]) for dpart in enumerate_dpartitions(3, 2)
    )
    assert got == expected


@pytest.mark.parametrize("charges", [(1, 0), (0, 0), (2, 0), (1, 1, 0), (2, 2, 1, 0)])
def test_lm_matches_height2_closed_forms(charges):
    got = rendered_lm(charges, 2)
    assert got == height2_characters(charges)


# One basis built to n holds the basis of every height k <= n, so LM reads
# every height off it.


def _characters_at(basis, n):
    """Height n of a basis at q = 1, each term's d-partition built afresh."""
    return {
        sym: CharacterSum.from_counts(
            {dpartition_from_symbol(s): c for s, c in vec.eval_at_one().items()}
        )
        for sym, vec in basis.items()
        if sym.height == n
    }


def _assert_heights_match_builds(charges, n, heights):
    basis = canonical_basis(charges, n)
    by_height = lm_constructible(charges, heights)
    assert sorted(by_height) == sorted(set(heights))
    for k in range(n + 1):
        expected = canonical_basis(charges, k)
        assert [(s, v) for s, v in basis.items() if s.height <= k] == list(expected.items())
        if k in by_height:
            chars = _characters_at(expected, k)
            shapes = enumerate_dpartitions(len(charges), k)
            assert list(by_height[k]) == list(chars)
            for sym, ids in by_height[k].items():
                assert ids == tuple(sorted(ids)) and all(m > 0 for _, m in ids)
                assert CharacterSum.from_ids(shapes, ids) == chars[sym]
            assert list(lm_constructible(charges, (k,))[k].items()) == list(
                by_height[k].items()
            )


@pytest.mark.parametrize("charges, n", [((1, 1, 0), 8), ((2, 0), 8), ((0, 0, 0, 0), 6)])
def test_heights_of_one_basis_match_builds_per_height(charges, n):
    _assert_heights_match_builds(charges, n, range(n + 1))


@settings(max_examples=25, deadline=None)
@given(charges_st, st.integers(0, 4), st.data())
def test_heights_of_one_basis_match_builds_per_height_random(charges, n, data):
    heights = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=n + 1))
    if n not in heights:
        heights.append(n)
    _assert_heights_match_builds(charges, n, heights)


def test_lm_by_height_needs_a_height():
    with pytest.raises(ValueError, match="need at least one height"):
        lm_constructible((1, 0), ())


@pytest.mark.parametrize("heights", [(-1, 3), (3, -1), (0, -2, 2)])
def test_lm_by_height_rejects_a_negative_height_before_building(heights, monkeypatch):
    built = []
    monkeypatch.setattr(fock, "canonical_basis", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="n must be nonnegative"):
        lm_constructible((1, 0), heights)
    assert built == []
