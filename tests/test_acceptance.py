"""Acceptance suite.

Each test implements one acceptance criterion at its exact tolerance (all
comparisons are exact integer/rational identities; the only tolerances are
the stated wall-clock bounds) and prints one pass line on success.  Run with
`pytest tests/test_acceptance.py -v` for a per-criterion report.
"""

import time
import warnings
from fractions import Fraction
from math import factorial

from helpers import (
    CharacterSum,
    euler_value,
    height2_characters,
    height2_monomials_at_one,
    in_q_zq,
    rendered_cells,
    rendered_lm,
    rendered_n2,
    rendered_verdict,
)
from wreathcells.combinatorics import (
    enumerate_dpartitions,
    standard_tableaux,
    tableau_count,
)
from wreathcells.conjecture import check_conjecture, params_from_r
from wreathcells.fock import (
    FockVector,
    canonical_basis,
    enumerate_standard_symbols,
    intermediate_A,
)
from wreathcells.gd12 import verify_frac_identity, verify_gaudin_eigensystem
from wreathcells.jucys_murphy import (
    CMParams,
    jm_cellular_characters,
    tableau_spectrum,
)

N2_BATTERY = [
    (2, (1, 0)),
    (2, (3, 0)),
    (2, (0, 0)),
    (3, (1, 1, 0)),
    (3, (0, 0, 0)),
    (3, (3, 1, 0)),
    (4, (2, 2, 1, 0)),
    (4, (1, 1, 0, 0)),
    (4, (0, 0, 0, 0)),
]


def _report(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})")


def test_criterion_1_n2_conjecture_battery():
    start = time.monotonic()
    for d, r in N2_BATTERY:
        verdict = check_conjecture(params_from_r(r, 1), 2)
        assert verdict.equal, (d, r, rendered_verdict(verdict))
        assert verdict.mode == "exact-n2"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"battery took {elapsed:.2f}s"
    _report(1, f"{len(N2_BATTERY)} parameter points in {elapsed:.2f}s")


def test_criterion_2_generic_case():
    start = time.monotonic()
    cases = [(3, (14, 7, 0), 3), (2, (5, 0), 3), (2, (5, 0), 4)]
    for d, r, n in cases:
        verdict = check_conjecture(params_from_r(r, 1), n)
        assert verdict.equal and verdict.mode == "generic", (d, r, n)
        irreducibles = frozenset(
            CharacterSum.from_counts({shape: 1})
            for shape in enumerate_dpartitions(d, n)
        )
        view = rendered_verdict(verdict)
        assert view.cm_counts.keys() == irreducibles
        assert view.lm_counts.keys() == irreducibles
        assert len(view.cm_counts) == len(enumerate_dpartitions(d, n))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"generic cases took {elapsed:.2f}s"
    _report(2, f"3 generic cases in {elapsed:.2f}s")


def test_criterion_3_asymptotic_degeneration():
    checked = 0
    for d, n in [(2, 3), (3, 2), (3, 3)]:
        charges = tuple(n * (d - 1 - i) for i in range(d))
        basis = canonical_basis(charges, n)
        for sym, vec in basis.items():
            assert vec == FockVector.unit(sym), sym
            checked += 1
        # with gaps >= n every symbol of each height <= n is standard
        component = enumerate_standard_symbols(charges, n)
        for h in range(n + 1):
            assert len(component.by_height[h]) == len(enumerate_dpartitions(d, h))
    _report(3, f"{checked} basis vectors collapse to their symbols")


def test_criterion_4_height2_closed_forms():
    cases = [(2, 2, 1, 0), (1, 0), (0, 0), (2, 0)]
    for charges in cases:
        expected_a = height2_monomials_at_one(charges)
        component = enumerate_standard_symbols(charges, 2)
        assert component.by_height[2] == frozenset(expected_a)

        basis = canonical_basis(charges, 2)
        for sigma, terms in expected_a.items():
            monomial = intermediate_A(sigma)
            assert monomial.eval_at_one() == terms, sigma
            # at height 2 the correction step is vacuous
            assert basis[sigma] == monomial, sigma

        got = rendered_lm(charges, 2)
        assert got == height2_characters(charges)
    _report(4, f"term-by-term match at q=1 for {len(cases)} charge vectors")


def test_criterion_5_frac_identity():
    start = time.monotonic()
    for d in range(1, 7):
        for l in range(1, d + 1):
            assert verify_frac_identity(d, l), (d, l)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"identity checks took {elapsed:.2f}s"
    _report(5, f"all 1 <= l <= d <= 6 in {elapsed:.2f}s")


def test_criterion_6_gaudin_eigensystems():
    checked = 0
    for d in range(2, 6):
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                if d % 2 == 0:
                    ks = [Fraction(0)] * d
                    report = verify_gaudin_eigensystem(
                        d, i, j, CMParams.from_ksharp(d, 1, ks)
                    )
                    assert report.ok and report.regimes, (d, i, j, "equal")
                    assert all(r.residuals_zero for r in report.regimes)
                    checked += 1
                for sign in (1, -1):
                    ks = [Fraction(10 * (t + 1)) for t in range(d)]
                    ks[i - 1] = Fraction(sign)
                    ks[j - 1] = Fraction(0)
                    report = verify_gaudin_eigensystem(
                        d, i, j, CMParams.from_ksharp(d, 1, ks)
                    )
                    assert report.ok and report.regimes, (d, i, j, sign)
                    assert all(r.residuals_zero for r in report.regimes)
                    checked += 1
    _report(6, f"{checked} (pair, regime) verifications with zero residuals")


def test_criterion_7_invariant_suites():
    # group-order identity
    for d in (1, 2, 3):
        for n in range(6):
            total = sum(
                tableau_count(shape) ** 2 for shape in enumerate_dpartitions(d, n)
            )
            assert total == d**n * factorial(n), (d, n)

    # telescoping spectra and partition of unity
    param_battery = [
        CMParams.from_ksharp(1, 1, (0,)),
        CMParams.from_ksharp(2, 1, (-1, 0)),
        CMParams.from_ksharp(2, Fraction(2, 3), (Fraction(1, 2), 0)),
        CMParams.from_ksharp(3, 1, (-2, -1, 0)),
        CMParams.from_ksharp(3, Fraction(-1, 2), (1, 1, 0)),
    ]
    for params in param_battery:
        for n in range(5):
            if params.d == 3 and n > 4:
                continue
            for shape in enumerate_dpartitions(params.d, n):
                ev = euler_value(params, shape)
                for tab in standard_tableaux(shape):
                    assert sum(tableau_spectrum(params, tab.boxes)) == ev
            cells = rendered_cells(jm_cellular_characters(params, n))
            for shape in enumerate_dpartitions(params.d, n):
                total = sum(cs.multiplicity(shape) for _, cs in cells)
                assert total == tableau_count(shape)

    # canonical-basis lattice property, positivity, order robustness
    basis_battery = [
        ((1, 0), 3),
        ((0, 0), 3),
        ((1, 0, 0), 3),
        ((1, 1, 0), 3),
        ((2, 1, 0), 2),
        ((2, 2, 1, 0), 2),
        ((5, 0), 4),
    ]
    for charges, n in basis_battery:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # positivity warnings become failures
            basis = canonical_basis(charges, n)
            reversed_ties = canonical_basis(charges, n, reverse_ties=True)
        assert basis == reversed_ties, charges
        standard = set(basis)
        for sym, vec in basis.items():
            assert vec.coefficient(sym).constant_term() == 1
            for other, coeff in vec.terms.items():
                if other != sym:
                    assert in_q_zq(coeff), (charges, sym, other)
                assert all(c >= 0 for c in coeff.coeffs.values())
    _report(7, "group order, telescoping, unity, lattice, order robustness")


def _as_combination(target, cells):
    cells = [c for c in cells if not c.is_zero()]

    def recurse(remaining, idx):
        if remaining.is_zero():
            return True
        if idx == len(cells):
            return False
        cell = cells[idx]
        bound = min(remaining.multiplicity(dp) // m for dp, m in cell.entries)
        for count in range(bound, -1, -1):
            rest = dict(remaining.counts())
            feasible = True
            for dp, m in cell.entries:
                rest[dp] = rest.get(dp, 0) - count * m
                if rest[dp] < 0:
                    feasible = False
            if feasible and recurse(CharacterSum.from_counts(rest), idx + 1):
                return True
        return False

    return recurse(target, 0)


def test_criterion_8_jm_cells_decompose_into_cm_cells():
    checked = 0
    for d, r in N2_BATTERY:
        params = params_from_r(r, 1)
        cm = sorted(rendered_n2(params), key=lambda c: c.sort_key())
        jm = jm_cellular_characters(params, 2)
        for _, cell in rendered_cells(jm):
            assert _as_combination(cell, cm), (d, r, cell.text())
            checked += 1
    _report(8, f"{checked} JM cells matched as nonnegative combinations")
