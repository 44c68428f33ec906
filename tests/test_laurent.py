from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bar, in_q_zq, parse_laurent, q_factorial, q_integer
from wreathcells.laurent import (
    LaurentPoly,
    NotDivisible,
    bar_symmetric_head,
    exact_quotient,
    one,
    parse_rational,
    q,
    zero,
)

laurent_polys = st.dictionaries(
    st.integers(-5, 5), st.integers(-9, 9), max_size=6
).map(LaurentPoly)

nonzero_polys = laurent_polys.filter(lambda p: not p.is_zero())


def test_monomial_inverse():
    assert q() * q(-1) == one()


def test_difference_of_squares():
    assert (q() + q(-1)) * (q() - q(-1)) == q(2) - q(-2)


@given(laurent_polys, laurent_polys, laurent_polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(laurent_polys, laurent_polys)
def test_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


def test_bar_examples():
    assert bar(q(2) + one()) == q(-2) + one()
    sym = q() + q(-1)
    assert bar(sym) == sym


@given(laurent_polys, laurent_polys)
def test_bar_is_ring_involution(a, b):
    assert bar(bar(a)) == a
    assert bar(a * b) == bar(a) * bar(b)
    assert bar(a + b) == bar(a) + bar(b)


def test_q_integer_and_factorial():
    assert q_integer(2) == q() + q(-1)
    assert q_factorial(1) == one()
    # expanded by hand: (q + q^-1)(q^2 + 1 + q^-2)
    by_hand = (q() + q(-1)) * (q(2) + one() + q(-2))
    assert q_factorial(3) == by_hand


@pytest.mark.parametrize("m", range(9))
def test_q_factorial_bar_symmetric(m):
    assert bar(q_factorial(m)) == q_factorial(m)


def test_exact_div_examples():
    two = q() + q(-1)
    assert two.exact_div(two) == one()
    assert (q(2) - q(-2)).exact_div(two) == q() - q(-1)
    with pytest.raises(NotDivisible):
        (q() + one()).exact_div(two)


@given(laurent_polys, nonzero_polys)
def test_exact_div_inverts_multiplication(a, b):
    assert (a * b).exact_div(b) == a


def test_exact_quotient_dense():
    # 1 + x^3 = (1 + x)(1 - x + x^2)
    assert exact_quotient([1, 0, 0, 1], [1, 1]) == [1, -1, 1]
    assert exact_quotient([0, 0], [1, 1]) == [0]
    for num in ([1, 0, 1], [1], [1, 2]):
        with pytest.raises(ArithmeticError):
            exact_quotient(num, [1, 1])
    with pytest.raises(NotDivisible):
        exact_quotient([1, 0, 2], [1, 0, 3])


def test_in_q_zq_and_eval():
    p = q() + 3 * q(2)
    assert in_q_zq(p) and p.eval_at_one() == 4
    p = one() + q()
    assert not in_q_zq(p) and p.eval_at_one() == 2
    p = q(-1)
    assert not in_q_zq(p) and p.eval_at_one() == 1
    assert in_q_zq(zero())


def test_text_form():
    p = q(-1) + 2 * one() + q(3)
    assert p.text() == "q^-1+2+q^3"
    assert zero().text() == "0"
    assert (q(-1) - 2 * q(2)).text() == "q^-1-2q^2"


@given(laurent_polys)
def test_text_round_trip(p):
    assert parse_laurent(p.text()) == p


@given(laurent_polys)
def test_bar_symmetric_head_property(p):
    head = bar_symmetric_head(p)
    assert bar(head) == head
    assert in_q_zq(p - head)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 3 ") == Fraction(3)
    assert parse_rational("+2") == Fraction(2)


@pytest.mark.parametrize("text", ["1e3", "1.5", "1e2000000", "1/-2", "3/", "1/0"])
def test_parse_rational_reads_only_an_integer_or_p_over_q(text):
    with pytest.raises(ValueError):
        parse_rational(text)
