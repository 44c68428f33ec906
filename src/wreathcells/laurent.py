"""Exact coefficient arithmetic.

Rationals are plain `fractions.Fraction`s.  Laurent polynomials in q carry
arbitrary-precision integer coefficients, stored sparsely with no zero
entries; all operations return fresh values and never mutate their arguments.
A `LaurentPoly` is never mutated once made, so one value may be shared by many
vectors: a Fock-space build hands the same coefficient to every term that
carries it.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse an integer literal or "p/q" into an exact rational."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


class NotDivisible(ArithmeticError):
    """Exact Laurent division left a remainder."""


class LaurentPoly:
    """Sparse integer Laurent polynomial in q.

    >>> (q() * q(-1)).text()
    '1'
    >>> (q(1) + q(-1)).text()
    'q^-1+q'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        trimmed = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    trimmed[int(e)] = c
        self.coeffs = trimmed

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant_term(self) -> int:
        return self.coeffs.get(0, 0)

    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, (LaurentPoly, int)):
            return NotImplemented
        return self.coeffs == _coerce(other).coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def eval_at_one(self) -> int:
        return sum(self.coeffs.values())

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Quotient self/other when the division is exact, else NotDivisible."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly()
        shift = self.min_exp() - other.min_exp()
        quot = exact_quotient(_dense(self), _dense(other))
        return LaurentPoly({shift + i: c for i, c in enumerate(quot)})

    def text(self) -> str:
        """Canonical text form, terms in increasing exponent, e.g. "q^-1+2+q^3"."""
        if not self.coeffs:
            return "0"
        out = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            out.append(sign + body)
        return "".join(out)

    def __repr__(self):
        return f"LaurentPoly({self.text()})"


def _trimmed_poly(coeffs: dict[int, int]) -> LaurentPoly:
    """A LaurentPoly holding coeffs as given: int exponents, no zero coefficient."""
    poly = object.__new__(LaurentPoly)
    poly.coeffs = coeffs
    return poly


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    raise TypeError(f"cannot treat {x!r} as a Laurent polynomial")


def _dense(p: LaurentPoly) -> list[int]:
    lo, hi = p.min_exp(), p.max_exp()
    out = [0] * (hi - lo + 1)
    for e, c in p.coeffs.items():
        out[e - lo] = c
    return out


def exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """Quotient of dense integer polynomials, coefficients in ascending order.

    `den` must end in a nonzero coefficient.  Raises NotDivisible unless `den`
    divides `num` exactly over the integers.
    """
    rem = list(num)
    quot = [0] * max(len(rem) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        f, r = divmod(rem[k + len(den) - 1], den[-1])
        if r:
            break  # rem keeps this nonzero term, so the check below raises
        quot[k] = f
        if f:
            for i, c in enumerate(den):
                rem[k + i] -= f * c
    if any(rem):
        raise NotDivisible(f"{den} does not divide {num} (ascending coefficients)")
    return quot


def zero() -> LaurentPoly:
    return LaurentPoly()


def one() -> LaurentPoly:
    return LaurentPoly({0: 1})


def q(exp: int = 1) -> LaurentPoly:
    return LaurentPoly({exp: 1})


def bar_symmetric_head(p: LaurentPoly) -> LaurentPoly:
    """The unique bar-symmetric polynomial congruent to p modulo qZ[q].

    Takes the constant term and every negative-exponent term c*q^e of p and
    returns c0 + sum c_e (q^e + q^-e) over e < 0.
    """
    out: dict[int, int] = {}
    for e, c in p.coeffs.items():
        if e == 0:
            out[0] = out.get(0, 0) + c
        elif e < 0:
            out[e] = out.get(e, 0) + c
            out[-e] = out.get(-e, 0) + c
    return LaurentPoly(out)
