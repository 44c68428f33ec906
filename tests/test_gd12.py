from fractions import Fraction

import pytest

from wreathcells.combinatorics import CharacterSum, DPartition
from wreathcells.gd12 import (
    Cyclo,
    RegimeMismatch,
    XYPoly,
    cm_cells_n2,
    cm_cells_n2_family,
    cyclotomic_polynomial,
    gaudin_matrices,
    sim_classes,
    verify_frac_identity,
    verify_gaudin_eigensystem,
)
from wreathcells.jucys_murphy import CMParams, jm_cellular_characters


def dp(*comps):
    return DPartition(tuple(tuple(c) for c in comps))


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
    cells = cm_cells_n2(CMParams.from_ksharp(2, 1, (-1, 0)))
    assert cells == frozenset(
        [
            cs(chi(2, 1)),
            cs(chi_prime(2, 1), chi_pair(2, 1, 2)),
            cs(chi(2, 2), chi_pair(2, 1, 2)),
            cs(chi_prime(2, 2)),
        ]
    )


def test_cells_single_class():
    cells = cm_cells_n2(CMParams.from_ksharp(2, 1, (0, 0)))
    assert cells == frozenset(
        [
            cs(chi(2, 1), chi(2, 2)),
            cs(chi_prime(2, 1), chi_prime(2, 2)),
            cs(chi_pair(2, 1, 2)),
        ]
    )


def test_cells_c0_zero():
    cells = cm_cells_n2(CMParams.from_ksharp(2, 0, (0, 0)))
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
    family = cm_cells_n2_family(params)

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
    cm = sorted(cm_cells_n2(params), key=lambda c: c.sort_key())
    for _, cell in jm.cells:
        assert _as_combination(cell, cm), cell.text()


@pytest.mark.parametrize(
    "params",
    [p for p in GD12_BATTERY if p.c0 == 0],
)
def test_c0_zero_jm_equals_cm(params):
    jm = jm_cellular_characters(params, 2)
    assert jm.character_set() == cm_cells_n2(params)


# Polynomial oracles


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_arithmetic():
    z = Cyclo.zeta_power(4, 1)
    assert z * z == Cyclo.from_rational(4, -1)
    total = Cyclo.from_rational(5, 0)
    for k in range(5):
        total = total + Cyclo.zeta_power(5, k)
    assert total.is_zero()


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
    params = CMParams.from_ksharp(5, 1, (7, 3, 2, -1, -5))
    for d in range(2, 6):
        p = CMParams.from_ksharp(d, 1, params.ksharp_vector()[:d])
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
    assert first.eigenvalue_x == XYPoly.monomial(2, 0, 2, 1).text()


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
