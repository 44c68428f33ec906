import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wreathcells.gd12 as gd12
from helpers import CharacterSum, rendered_cells, rendered_n2, rendered_n2_family
from wreathcells.cli import cli_main
from wreathcells.combinatorics import enumerate_dpartitions
from wreathcells.gd12 import (
    Cyclo,
    DiscriminantMismatch,
    RegimeMismatch,
    XYPoly,
    cm_cells_n2_family,
    cyclotomic_polynomial,
    gaudin_matrices,
    sim_classes,
    verify_frac_identity,
    verify_gaudin_eigensystem,
)
from wreathcells.jucys_murphy import CMParams, jm_cellular_characters


def dp(*comps):
    return tuple(tuple(c) for c in comps)


def chi(d, i):
    comps = [()] * d
    comps[i - 1] = (2,)
    return dp(*comps)


def chi_prime(d, i):
    comps = [()] * d
    comps[i - 1] = (1, 1)
    return dp(*comps)


def chi_pair(d, i, j):
    comps = [()] * d
    comps[i - 1] = (1,)
    comps[j - 1] = (1,)
    return dp(*comps)


def cs(*dparts):
    counts = {}
    for dpart in dparts:
        counts[dpart] = counts.get(dpart, 0) + 1
    return CharacterSum.from_counts(counts)


def test_sim_classes():
    assert sim_classes(CMParams.from_ksharp(2, 1, (-1, 0))) == ((1,), (2,))
    assert sim_classes(CMParams.from_ksharp(2, 1, (0, 0))) == ((1, 2),)
    assert sim_classes(CMParams.from_ksharp(4, 1, (0, 0, -1, -1))) == (
        (1, 2),
        (3, 4),
    )


def test_cells_gap_one():
    cells = rendered_n2(CMParams.from_ksharp(2, 1, (-1, 0)))
    assert cells == frozenset(
        [
            cs(chi(2, 1)),
            cs(chi_prime(2, 1), chi_pair(2, 1, 2)),
            cs(chi(2, 2), chi_pair(2, 1, 2)),
            cs(chi_prime(2, 2)),
        ]
    )


def test_cells_single_class():
    cells = rendered_n2(CMParams.from_ksharp(2, 1, (0, 0)))
    assert cells == frozenset(
        [
            cs(chi(2, 1), chi(2, 2)),
            cs(chi_prime(2, 1), chi_prime(2, 2)),
            cs(chi_pair(2, 1, 2)),
        ]
    )


def test_cells_c0_zero():
    cells = rendered_n2(CMParams.from_ksharp(2, 0, (0, 0)))
    expected = CharacterSum.from_counts(
        {
            chi(2, 1): 1,
            chi_prime(2, 1): 1,
            chi(2, 2): 1,
            chi_prime(2, 2): 1,
            chi_pair(2, 1, 2): 2,
        }
    )
    assert cells == frozenset([expected])


def _splits(params, i, j):
    ki, kj = params.ksharp(i), params.ksharp(j)
    if params.c0 == 0:
        return True
    if ki == kj and params.d % 2 == 0:
        return True
    return (ki - kj) ** 2 == params.c0 ** 2


GD12_BATTERY = [
    CMParams.from_ksharp(2, 1, (-1, 0)),
    CMParams.from_ksharp(2, 1, (0, 0)),
    CMParams.from_ksharp(2, 1, (-3, 0)),
    CMParams.from_ksharp(2, Fraction(1, 2), (Fraction(-1, 2), 0)),
    CMParams.from_ksharp(3, 1, (-1, -1, 0)),
    CMParams.from_ksharp(3, 1, (-2, -1, 0)),
    CMParams.from_ksharp(3, 1, (0, 0, 0)),
    CMParams.from_ksharp(4, 1, (-2, -2, -1, 0)),
    CMParams.from_ksharp(4, 1, (-1, -1, 0, 0)),
    CMParams.from_ksharp(4, 2, (-4, -2, -2, 0)),
    CMParams.from_ksharp(2, 0, (-1, 0)),
    CMParams.from_ksharp(3, 0, (1, 1, 0)),
    CMParams.from_ksharp(4, 0, (2, 1, 1, 0)),
]


@pytest.mark.parametrize("params", GD12_BATTERY)
def test_family_bookkeeping(params):
    """Per irreducible, the family multiplicities total the number of
    simple-module classes containing it, counted with multiplicity."""
    d = params.d
    family = rendered_n2_family(params)

    def family_total(dpart):
        return sum(csum.multiplicity(dpart) for _, csum in family)

    for i in range(1, d + 1):
        assert family_total(chi(d, i)) == 1
        assert family_total(chi_prime(d, i)) == 1
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            expected = 2 if _splits(params, i, j) else 1
            assert family_total(chi_pair(d, i, j)) == expected


def _as_combination(target, cells):
    """Exhaustive search for a nonnegative integer combination of cells."""
    cells = [c for c in cells if not c.is_zero()]

    def recurse(remaining, idx):
        if remaining.is_zero():
            return True
        if idx == len(cells):
            return False
        cell = cells[idx]
        bound = min(
            remaining.multiplicity(dpart) // m for dpart, m in cell.entries
        )
        for count in range(bound, -1, -1):
            rest = dict(remaining.counts())
            ok = True
            for dpart, m in cell.entries:
                rest[dpart] = rest.get(dpart, 0) - count * m
                if rest[dpart] < 0:
                    ok = False
            if ok and recurse(CharacterSum.from_counts(rest), idx + 1):
                return True
        return False

    return recurse(target, 0)


@pytest.mark.parametrize("params", GD12_BATTERY)
def test_jm_cells_are_sums_of_cm_cells(params):
    jm = jm_cellular_characters(params, 2)
    cm = sorted(rendered_n2(params), key=lambda c: c.sort_key())
    for _, cell in rendered_cells(jm, params.d):
        assert _as_combination(cell, cm), cell.text()


@pytest.mark.parametrize(
    "params",
    [p for p in GD12_BATTERY if p.c0 == 0],
)
def test_c0_zero_jm_equals_cm(params):
    jm = jm_cellular_characters(params, 2)
    shapes = enumerate_dpartitions(params.d, 2)
    characters = {CharacterSum.from_ids(shapes, ids) for ids in jm.character_counts()}
    assert characters == rendered_n2(params)


@pytest.mark.parametrize(
    "params, labels",
    [
        (
            CMParams.from_ksharp(2, 0, (-1, 0)),
            ["L~((1,),(1,))", "L~((1,),(2,))", "L~((2,),(1,))", "L~((2,),(2,))"],
        ),
        (
            CMParams.from_ksharp(4, 1, (-1, -1, 0, 0)),
            [
                "L((1, 2))",
                "L((3, 4))",
                "L'((1, 2))",
                "L'((3, 4))",
                "L+((1, 2),(1, 2))",
                "L-((1, 2),(1, 2))",
                "L+((3, 4),(3, 4))",
                "L-((3, 4),(3, 4))",
            ],
        ),
        (
            CMParams.from_ksharp(3, 1, (-1, -1, 0)),
            ["L((1, 2))", "L((3,))", "L'((1, 2))", "L'((3,))", "L((1, 2),(1, 2))"],
        ),
        (
            CMParams.from_ksharp(3, 1, (-2, -1, 0)),
            ["L((1,))", "L((2,))", "L((3,))", "L'((1,))", "L'((2,))", "L'((3,))",
             "L((1,),(3,))"],
        ),
    ],
)
def test_family_labels(params, labels):
    assert params in GD12_BATTERY
    assert [label for label, _ in cm_cells_n2_family(params)] == labels


def test_family_characters_with_partners():
    # ksharp (-2, -1, 0), c0 = 1: L((2,)) takes the pairs with the class c0
    # below it, (1,); L'((2,)) those with the class c0 above it, (3,); and
    # (1,), (3,) are 2*c0 apart, so they get a cross cell of their own.
    family = dict(rendered_n2_family(CMParams.from_ksharp(3, 1, (-2, -1, 0))))
    assert family["L((2,))"] == cs(chi(3, 2), chi_pair(3, 1, 2))
    assert family["L'((2,))"] == cs(chi_prime(3, 2), chi_pair(3, 2, 3))
    assert family["L((1,),(3,))"] == cs(chi_pair(3, 1, 3))


# Polynomial oracles


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_power_rejects_nonpositive_d():
    with pytest.raises(ValueError, match="d must be positive"):
        Cyclo.zeta_power(0, 1)


def test_zeta_arithmetic():
    z = Cyclo.zeta_power(4, 1)
    assert z * z == Cyclo.from_rational(4, -1)
    total = Cyclo.from_rational(5, 0)
    for k in range(5):
        total = total + Cyclo.zeta_power(5, k)
    assert total.is_zero()


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_cyclo_rejects_operands_from_different_fields(op):
    with pytest.raises(ValueError, match="d = 3 and d = 5"):
        op(Cyclo.zeta_power(3, 1), Cyclo.zeta_power(5, 3))


def test_frac_identity_d1():
    assert verify_frac_identity(1, 1)


def test_frac_identity_d2_by_hand():
    # (X + Y) - (X - Y) = 2Y and (X + Y) + (X - Y) = 2X
    assert verify_frac_identity(2, 1)
    assert verify_frac_identity(2, 2)


@pytest.mark.parametrize("d", range(1, 7))
def test_frac_identity_all(d):
    for l in range(1, d + 1):
        assert verify_frac_identity(d, l)


def test_traces_and_determinants_agree():
    ksharp = (7, 3, 2, -1, -5)
    for d in range(2, 6):
        p = CMParams.from_ksharp(d, 1, ksharp[:d])
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                mx, my = gaudin_matrices(d, i, j, p)
                assert mx[0][0] + mx[1][1] == my[0][0] + my[1][1]
                det_x = mx[0][0] * mx[1][1] - mx[0][1] * mx[1][0]
                det_y = my[0][0] * my[1][1] - my[0][1] * my[1][0]
                assert det_x == det_y


def test_gaudin_gap_regime_by_hand():
    # ksharp = (-1, 0), c0 = 1: difference is -c0; the displayed eigenvalue
    # for the first eigenvector is ksharp_j X^d - ksharp_i Y^d = Y^2
    params = CMParams.from_ksharp(2, 1, (-1, 0))
    report = verify_gaudin_eigensystem(2, 1, 2, params)
    assert report.ok
    assert [r.name for r in report.regimes] == ["gap-c0", "gap-c0"]
    first = report.regimes[0]
    assert first.eigenvalue_x == XYPoly.monomial(0, 2, 1).text()


def test_gaudin_gap_plus_regime_by_hand():
    # ksharp = (1, 0), c0 = 1: difference is +c0; the first eigenvector is
    # (Y, X) with eigenvalue ksharp_j X^d - ksharp_i Y^d = -Y^2
    params = CMParams.from_ksharp(2, 1, (1, 0))
    report = verify_gaudin_eigensystem(2, 1, 2, params)
    assert report.ok
    assert [r.name for r in report.regimes] == ["gap+c0", "gap+c0"]
    first, second = report.regimes
    assert first.vector == ("(1)*X^0*Y^1", "(1)*X^1*Y^0")
    assert first.eigenvalue_x == XYPoly.monomial(0, 2, -1).text()
    assert second.vector == ("(1)*X^1*Y^0", "(-1)*X^0*Y^1")


def test_gaudin_equal_ksharp_by_hand():
    params = CMParams.from_ksharp(2, 1, (0, 0))
    report = verify_gaudin_eigensystem(2, 1, 2, params)
    assert report.ok
    assert {r.name for r in report.regimes} == {"equal-ksharp"}
    # eigenvectors specialize to the constant columns (1, -1) and (1, 1)
    assert report.regimes[0].vector == ("(1)*X^0*Y^0", "(-1)*X^0*Y^0")


def test_gaudin_regime_mismatch():
    params = CMParams.from_ksharp(3, 1, (5, 0, -7))
    with pytest.raises(RegimeMismatch):
        verify_gaudin_eigensystem(3, 1, 2, params)


def test_square_discriminant_outside_every_regime_is_a_named_invariant_error(
    monkeypatch, capsys
):
    # delta = 5 is neither 0 nor +-c0, so no regime applies; with every XYPoly
    # comparison forced true, the discriminant matches a square pattern
    params = CMParams.from_ksharp(3, 1, (5, 0, -7))
    monkeypatch.setattr(XYPoly, "__eq__", lambda self, other: True)
    with pytest.raises(DiscriminantMismatch, match="square pattern") as info:
        verify_gaudin_eigensystem(3, 1, 2, params)
    assert not isinstance(info.value, ValueError)
    assert cli_main(["gaudin-verify", "--c0", "1", "--k", "5,-7,0"]) == 3
    assert "DiscriminantMismatch" in capsys.readouterr().err


def test_gaudin_rejects_d_other_than_params_d():
    params = CMParams.from_ksharp(2, 1, (-1, 0))
    with pytest.raises(ValueError, match="d = 3 disagrees with params.d = 2"):
        gaudin_matrices(3, 1, 2, params)
    with pytest.raises(ValueError, match="d = 3 disagrees with params.d = 2"):
        verify_gaudin_eigensystem(3, 1, 2, params)


def test_gaudin_rejects_c0_zero():
    with pytest.raises(ValueError):
        verify_gaudin_eigensystem(2, 1, 2, CMParams.from_ksharp(2, 0, (0, 0)))


def test_gaudin_report_json():
    params = CMParams.from_ksharp(4, 1, (0, 0, -1, -1))
    report = verify_gaudin_eigensystem(4, 1, 2, params)
    obj = report.to_json_obj()
    assert obj["ok"] is True
    assert all(
        residual == "0"
        for regime in obj["regimes"]
        for residual in regime["residuals"]
    )


# The Cyclo ring as the oracle for rational XYPoly arithmetic

# ints, Fractions (integral ones included) and polynomials mixing the two
small_rationals = st.integers(-3, 3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
rational_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), small_rationals, max_size=5
).map(XYPoly)


def _lift(d, poly):
    return XYPoly({key: Cyclo.from_rational(d, c) for key, c in poly.terms.items()})


@settings(deadline=None)
@given(st.integers(1, 8), rational_polys, rational_polys, small_rationals)
def test_rational_xypoly_agrees_with_cyclo_lift(d, a, b, s):
    la, lb = _lift(d, a), _lift(d, b)
    results = [
        (a + b, la + lb),
        (a - b, la - lb),
        (-b, -lb),
        (a * b, la * lb),
        (a.scale(s), la.scale(Cyclo.from_rational(d, s))),
        (a - a, la - la),
    ]
    for rational, cyclo in results:
        assert _lift(d, rational) == cyclo
        assert rational.is_zero() == cyclo.is_zero()
        assert rational.text() == cyclo.text()
    assert (a == b) == (la == lb)
    assert a == XYPoly(dict(a.terms)) and la == _lift(d, a)
    # both rings share XYPoly.__sub__, so also check it against + and scale
    assert (a - b) + b == a and a - b == a + b.scale(-1)
    assert (la - lb) + lb == la


def test_gaudin_trace_and_determinant_agree_over_both_rings():
    for d in range(2, 6):
        params = CMParams.from_ksharp(d, Fraction(2, 3), [Fraction(t, 2) for t in range(d)])
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                mx, my = gaudin_matrices(d, i, j, params)
                for mat in (mx, my):
                    lifted = [[_lift(d, entry) for entry in row] for row in mat]
                    trace = mat[0][0] + mat[1][1]
                    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
                    assert _lift(d, trace) == lifted[0][0] + lifted[1][1]
                    assert _lift(d, det) == (
                        lifted[0][0] * lifted[1][1] - lifted[0][1] * lifted[1][0]
                    )


# Ints at integral points, with the all-Fraction arithmetic as the oracle


def _coefficients(mats):
    return [c for mat in mats for row in mat for entry in row for c in entry.terms.values()]


def _outcome(d, i, j, params):
    try:
        return verify_gaudin_eigensystem(d, i, j, params).to_json_obj()
    except (RegimeMismatch, DiscriminantMismatch) as exc:
        return type(exc).__name__, str(exc)


def _acceptance_battery(scale):
    """Acceptance criterion 6's points, with c0 and every ksharp times scale."""
    for d in range(2, 6):
        for i, j in combinations(range(1, d + 1), 2):
            if d % 2 == 0:
                yield d, i, j, CMParams.from_ksharp(d, scale, [0] * d)
            for sign in (1, -1):
                ks = [10 * (t + 1) * scale for t in range(d)]
                ks[i - 1], ks[j - 1] = sign * scale, 0
                yield d, i, j, CMParams.from_ksharp(d, scale, ks)


def _non_integral_points():
    """ksharp in halves and thirds, pair (i, j) at gap +-c0, equal or neither."""
    for c0 in (Fraction(2, 3), Fraction(-1, 2), Fraction(-7, 5)):
        for d in range(2, 5):
            for i, j in combinations(range(1, d + 1), 2):
                for delta in (c0, -c0, 0, Fraction(1, 2), Fraction(1, 3)):
                    ks = [Fraction(t + 1, 2 + t % 2) for t in range(d)]
                    ks[j - 1] = Fraction(-1, 3)
                    ks[i - 1] = ks[j - 1] + delta
                    yield d, i, j, CMParams.from_ksharp(d, c0, ks)


def test_int_coefficients_agree_with_the_fraction_oracle(monkeypatch):
    points = [p for scale in (1, -1, 2, -2) for p in _acceptance_battery(scale)]
    points += _non_integral_points()
    identities = [(d, l) for d in range(1, 7) for l in range(1, d + 1)]
    fast = [_outcome(*point) for point in points]
    fast_identities = [verify_frac_identity(d, l) for d, l in identities]
    names = {r["name"] for out in fast if isinstance(out, dict) for r in out["regimes"]}
    assert names == {"equal-ksharp", "gap+c0", "gap-c0"}
    assert any(out[0] == "RegimeMismatch" for out in fast if isinstance(out, tuple))

    # The oracle reads every rational input as a Fraction, so its arithmetic
    # runs on Fractions throughout.
    monkeypatch.setattr(gd12, "_int_if_integral", Fraction)
    assert all(type(c) is Fraction for c in _coefficients(gaudin_matrices(*points[0])))
    assert [_outcome(*point) for point in points] == fast
    assert [verify_frac_identity(d, l) for d, l in identities] == fast_identities


def test_integral_points_keep_int_coefficients():
    params = CMParams.from_ksharp(4, -2, (-20, -2, 0, -40))
    for i, j in combinations(range(1, 5), 2):
        coefficients = _coefficients(gaudin_matrices(4, i, j, params))
        assert coefficients and all(type(c) is int for c in coefficients)
    for d in range(1, 9):
        for k in range(d):
            z = Cyclo.zeta_power(d, k)
            assert all(type(c) is int for c in z.co + (z * z).co)
    assert all(type(c) is int for c in Cyclo.from_rational(6, Fraction(4, 2)).co)

    # at c0 = 1/2, with ksharp in halves, every coefficient keeps its denominator
    half = CMParams.from_ksharp(2, Fraction(1, 2), (Fraction(-1, 2), Fraction(3, 2)))
    coefficients = _coefficients(gaudin_matrices(2, 1, 2, half))
    assert coefficients and all(c.denominator == 2 for c in coefficients)
    assert Cyclo.from_rational(3, Fraction(-1, 2)).co == (Fraction(-1, 2), 0)
