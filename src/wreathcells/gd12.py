"""Closed-form cells for G(d,1,2) and exact Gaudin-matrix verification.

The n = 2 classification is driven by the equivalence classes of 1..d under
equality of ksharp values.  Cells are emitted directly from the closed forms
(one family per simple-module class, then deduplicated), each character
``IdCounts`` over ``shape_index(d, 2)``, the d-partitions of 2:

    chi_i      <-> (2) in component i,
    chi'_i     <-> (1,1) in component i,
    chi_{i,j}  <-> (1) in components i and j (i < j).

The Gaudin oracle works in the Laurent ring Q[X^-1, X, Y^-1, Y]: every matrix
entry, eigenvector and eigenvalue is built from ksharp, c0 and +-1, so its
coefficients are rational.  Only the partial-fraction identity needs zeta; it
runs over Q(zeta_d), with arithmetic done exactly modulo the d-th cyclotomic
polynomial.

Integral coefficients, here and in Q(zeta_d), are Python ints; a ``Fraction``
appears only where a value has a real denominator.  Ints and integral
Fractions compare, hash and print alike, so reports do not depend on which
one a coefficient is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .combinatorics import IdCounts, shape_index
from .jucys_murphy import CMParams
from .laurent import exact_quotient


class RegimeMismatch(ValueError):
    """Parameters fit no displayed degenerate regime of the 2x2 Gaudin action.

    Raised as ``RegimeMismatch((i, j), reason)``; the message leads with the pair.
    """

    @property
    def reason(self) -> str:
        return self.args[1]

    def __str__(self) -> str:
        (i, j), reason = self.args
        return f"pair ({i},{j}): {reason}"


class DiscriminantMismatch(AssertionError):
    """The discriminant is a monomial square although no regime applies.

    An internal invariant, not a usage error, so it is not a ValueError.
    """


def _int_if_integral(value):
    """``value.numerator`` if the rational ``value`` is an integer, else ``value``."""
    return value.numerator if value.denominator == 1 else value


# Exact cyclotomic arithmetic.


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, ascending, monic."""
    if d < 1:
        raise ValueError("d must be positive")
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = exact_quotient(num, list(cyclotomic_polynomial(e)))
    return tuple(num)


@dataclass(frozen=True)
class Cyclo:
    """Element of Q(zeta_d), coefficients reduced modulo the cyclotomic polynomial.

    The coefficients stay in their own ring: ints while they are integral,
    Fractions only where a rational input brings a denominator.
    """

    d: int
    co: tuple[int | Fraction, ...]

    @classmethod
    def _reduce(cls, d: int, coeffs) -> "Cyclo":
        phi = cyclotomic_polynomial(d)
        deg = len(phi) - 1
        work = list(coeffs)
        for k in range(len(work) - 1, deg - 1, -1):
            top = work[k]
            if top:
                for i, c in enumerate(phi):
                    if c:
                        work[k - deg + i] -= top * c
        del work[deg:]
        work += [0] * (deg - len(work))
        return cls(d, tuple(work))

    @classmethod
    def from_rational(cls, d: int, value) -> "Cyclo":
        return cls._reduce(d, [_int_if_integral(Fraction(value))])

    @classmethod
    def zeta_power(cls, d: int, power: int) -> "Cyclo":
        if d < 1:
            raise ValueError("d must be positive")
        return cls._reduce(d, [0] * (power % d) + [1])

    def __bool__(self) -> bool:
        return any(self.co)

    def is_zero(self) -> bool:
        return not self

    def _same_field(self, other: "Cyclo") -> None:
        if other.d != self.d:
            raise ValueError(
                f"Cyclo operands lie in different fields: d = {self.d} and d = {other.d}"
            )

    def __add__(self, other: "Cyclo") -> "Cyclo":
        self._same_field(other)
        return Cyclo(self.d, tuple(a + b for a, b in zip(self.co, other.co)))

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        self._same_field(other)
        return Cyclo(self.d, tuple(a - b for a, b in zip(self.co, other.co)))

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.d, tuple(-a for a in self.co))

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        self._same_field(other)
        out = [0] * (2 * len(self.co))
        for i, a in enumerate(self.co):
            if a:
                for j, b in enumerate(other.co):
                    out[i + j] += a * b
        return Cyclo._reduce(self.d, out)

    def text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.co):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{i}")
        return "+".join(parts).replace("+-", "-")

    __str__ = text


class XYPoly:
    """Bivariate Laurent polynomial, a ``{(ex, ey): coeff}`` map with no zero entry.

    Coefficients come from one ring with ``+``, ``-``, ``*`` and a falsy zero:
    the rationals for the Gaudin matrices, ``Cyclo`` for the partial-fraction
    identity.  A rational coefficient is an ``int`` while it is integral and a
    ``Fraction`` only where it has a denominator; the two mix freely.

    >>> x, y = XYPoly.monomial(1, 0), XYPoly.monomial(0, 1, Fraction(1, 2))
    >>> ((x + y) * (x - y)).text()
    '(-1/4)*X^0*Y^2 + (1)*X^2*Y^0'
    >>> one, i = Cyclo.from_rational(4, 1), Cyclo.zeta_power(4, 1)
    >>> (XYPoly.monomial(1, 0, one) - XYPoly.monomial(0, 1, i)).text()
    '(-1*z)*X^0*Y^1 + (1)*X^1*Y^0'
    >>> ((XYPoly.monomial(1, 0, one) - XYPoly.monomial(0, 1, i))
    ...  * (XYPoly.monomial(1, 0, one) + XYPoly.monomial(0, 1, i))).text()
    '(1)*X^0*Y^2 + (1)*X^2*Y^0'
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, c in (terms or {}).items() if c}

    @classmethod
    def monomial(cls, ex: int, ey: int, coeff=1) -> "XYPoly":
        return cls({(ex, ey): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "XYPoly") -> "XYPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return _xypoly(out)

    def __sub__(self, other: "XYPoly") -> "XYPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] - c if key in out else -c
        return _xypoly(out)

    def __neg__(self) -> "XYPoly":
        return _xypoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "XYPoly") -> "XYPoly":
        out = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                key = (x1 + x2, y1 + y2)
                prod = c1 * c2
                out[key] = out[key] + prod if key in out else prod
        return _xypoly(out)

    def scale(self, value) -> "XYPoly":
        return _xypoly({k: c * value for k, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, XYPoly):
            return NotImplemented
        return self.terms == other.terms

    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[key]})*X^{key[0]}*Y^{key[1]}" for key in sorted(self.terms)
        )

    def __repr__(self):
        return f"XYPoly({self.text()})"


def _xypoly(terms: dict) -> XYPoly:
    """An XYPoly holding terms as given, less their zero entries if there are any."""
    poly = object.__new__(XYPoly)
    poly.terms = terms if all(terms.values()) else {k: c for k, c in terms.items() if c}
    return poly


def verify_frac_identity(d: int, l: int) -> bool:
    """Denominator-cleared partial-fraction identity for d-th roots of unity.

    Checks sum_k zeta^(k*l) * prod_{k' != k} (X - zeta^k' Y) = d X^(l-1) Y^(d-l)
    over Q(zeta_d).
    """
    if not 1 <= l <= d:
        raise ValueError("need 1 <= l <= d")
    one = Cyclo.from_rational(d, 1)
    x = XYPoly.monomial(1, 0, one)
    lhs = XYPoly()
    for k in range(d):
        term = XYPoly.monomial(0, 0, one)
        for k2 in range(d):
            if k2 != k:
                term = term * (x - XYPoly.monomial(0, 1, Cyclo.zeta_power(d, k2)))
        lhs = lhs + term.scale(Cyclo.zeta_power(d, k * l))
    rhs = XYPoly.monomial(l - 1, d - l, Cyclo.from_rational(d, d))
    return lhs == rhs


# Equivalence classes and closed-form cells at n = 2.


def sim_classes(params: CMParams) -> tuple[tuple[int, ...], ...]:
    """Blocks of 1..d with equal ksharp values, ordered by first element."""
    blocks: dict[Fraction, list[int]] = {}
    for i in range(1, params.d + 1):
        blocks.setdefault(params.ksharp(i), []).append(i)
    return tuple(sorted((tuple(v) for v in blocks.values()), key=lambda b: b[0]))


def cm_cells_n2_family(params: CMParams) -> list[tuple[str, IdCounts]]:
    """One labelled cellular character per simple-module class, no dedup.

    Each character is ``IdCounts`` over ``shape_index(d, 2)``, counted from
    the class's list of shapes, each shape given by its (component, part)
    pairs.

    >>> from wreathcells.combinatorics import components_text, enumerate_dpartitions
    >>> shapes = enumerate_dpartitions(2, 2)
    >>> for label, ids in cm_cells_n2_family(CMParams.from_ksharp(2, 1, (-1, 0))):
    ...     print(label, ids, [components_text(shapes[i]) for i, _ in ids])
    L((1,)) ((0, 1),) ['2|∅']
    L((2,)) ((2, 1), (3, 1)) ['1|1', '∅|2']
    L'((1,)) ((1, 1), (2, 1)) ['1.1|∅', '1|1']
    L'((2,)) ((4, 1),) ['∅|1.1']
    """
    d, c0 = params.d, params.c0
    index = shape_index(d, 2)
    classes = sim_classes(params)
    value = {cls: params.ksharp(cls[0]) for cls in classes}
    by_value = {v: cls for cls, v in value.items()}

    def shape(*parts) -> int:
        """The id of the shape with each ``(component, part)``, ∅ elsewhere."""
        comps = [()] * d
        for comp, part in parts:
            comps[comp - 1] = part
        return index[tuple(comps)]

    def pairs(ijs):
        return [shape((i, (1,)), (j, (1,))) for i, j in ijs]

    def cross(oa, ob):
        return pairs((i, j) for i in oa for j in ob)

    family: list[tuple[str, list[int]]] = []
    if c0 == 0:
        for oa in classes:
            for ob in classes:
                if oa == ob:
                    ids = [shape((i, part)) for i in oa for part in ((2,), (1, 1))]
                    ids += 2 * pairs(combinations(oa, 2))
                else:
                    ids = cross(oa, ob)
                family.append((f"L~({oa},{ob})", ids))
    else:
        for name, part, step in (("L", (2,), -c0), ("L'", (1, 1), c0)):
            for cls in classes:
                ids = [shape((i, part)) for i in cls]
                partner = by_value.get(value[cls] + step)
                if partner is not None:
                    ids += cross(cls, partner)
                family.append((f"{name}({cls})", ids))
        for oa, ob in combinations(classes, 2):
            if (value[oa] - value[ob]) ** 2 != c0 ** 2:
                family.append((f"L({oa},{ob})", cross(oa, ob)))
        for cls in classes:
            if len(cls) > 1:
                for sign in ("+", "-") if d % 2 == 0 else ("",):
                    family.append((f"L{sign}({cls},{cls})", pairs(combinations(cls, 2))))
    return [(label, tuple(sorted(Counter(ids).items()))) for label, ids in family]


def cm_cells_n2(params: CMParams) -> frozenset[IdCounts]:
    """The set of Calogero-Moser cellular characters of G(d,1,2), as ``IdCounts``."""
    return frozenset(ids for _, ids in cm_cells_n2_family(params))


# Gaudin matrices at n = 2 and their eigen-systems.


def gaudin_matrices(d: int, i: int, j: int, params: CMParams):
    """The 2x2 actions of the rescaled Gaudin generators on the pair module."""
    if d != params.d:
        raise ValueError(f"d = {d} disagrees with params.d = {params.d}")
    if not 1 <= i < j <= d:
        raise ValueError("need 1 <= i < j <= d")
    ki, kj = _int_if_integral(params.ksharp(i)), _int_if_integral(params.ksharp(j))
    c0 = _int_if_integral(params.c0)
    w = j - i
    xd_yd = XYPoly.monomial(d, 0) - XYPoly.monomial(0, d)
    off_hi = XYPoly.monomial(d - w, w, c0)
    off_lo = XYPoly.monomial(w, d - w, c0)
    mx = (
        (xd_yd.scale(ki), -off_hi),
        (-off_lo, xd_yd.scale(kj)),
    )
    my = (
        (xd_yd.scale(kj), off_hi),
        (off_lo, xd_yd.scale(ki)),
    )
    return mx, my


def _mat_vec(mat, vec):
    return (
        mat[0][0] * vec[0] + mat[0][1] * vec[1],
        mat[1][0] * vec[0] + mat[1][1] * vec[1],
    )


def _eigen_residuals(mat, vec, eigenvalue):
    image = _mat_vec(mat, vec)
    return (image[0] - eigenvalue * vec[0], image[1] - eigenvalue * vec[1])


def _vector_from_exponents(spec) -> tuple[XYPoly, XYPoly]:
    """Build ((+-)X^ax Y^ay, ...) clearing negative exponents with a common XY shift."""
    shift = max(0, -min(min(ax, ay) for ax, ay, _ in spec))
    return tuple(XYPoly.monomial(ax + shift, ay + shift, sign) for ax, ay, sign in spec)


@dataclass(frozen=True)
class RegimeCheck:
    name: str
    vector: tuple[str, str]
    eigenvalue_x: str
    eigenvalue_y: str
    residuals: tuple[str, str, str, str]
    residuals_zero: bool


@dataclass(frozen=True)
class GaudinReport:
    d: int
    i: int
    j: int
    trace_ok: bool
    det_ok: bool
    discriminant_ok: bool
    regimes: tuple[RegimeCheck, ...]

    @property
    def ok(self) -> bool:
        return (
            self.trace_ok
            and self.det_ok
            and self.discriminant_ok
            and bool(self.regimes)
            and all(r.residuals_zero for r in self.regimes)
        )

    def to_json_obj(self):
        return {
            "d": self.d,
            "pair": [self.i, self.j],
            "trace_ok": self.trace_ok,
            "det_ok": self.det_ok,
            "discriminant_ok": self.discriminant_ok,
            "regimes": [
                {
                    "name": r.name,
                    "vector": list(r.vector),
                    "eigenvalue_x": r.eigenvalue_x,
                    "eigenvalue_y": r.eigenvalue_y,
                    "residuals": list(r.residuals),
                    "residuals_zero": r.residuals_zero,
                }
                for r in self.regimes
            ],
            "ok": self.ok,
        }


def _regime_check(name, mx, my, vec, mu_x, mu_y) -> RegimeCheck:
    res_x = _eigen_residuals(mx, vec, mu_x)
    res_y = _eigen_residuals(my, vec, mu_y)
    residuals = tuple(p.text() for p in res_x + res_y)
    zero = all(p.is_zero() for p in res_x + res_y)
    return RegimeCheck(
        name,
        (vec[0].text(), vec[1].text()),
        mu_x.text(),
        mu_y.text(),
        residuals,
        zero,
    )


def verify_gaudin_eigensystem(d: int, i: int, j: int, params: CMParams) -> GaudinReport:
    """Verify trace, determinant, discriminant and the degenerate eigen-systems.

    Requires c0 != 0 (the c0 = 0 action is diagonal and handled by the closed
    forms directly).  Raises RegimeMismatch when the parameters fit none of the
    degenerate regimes; the matrices are then certified irreducible by checking
    that the discriminant is not one of the candidate monomial-square patterns,
    and DiscriminantMismatch if it is one.
    """
    if params.c0 == 0:
        raise ValueError("the eigen-system oracle assumes c0 != 0")
    ki, kj = _int_if_integral(params.ksharp(i)), _int_if_integral(params.ksharp(j))
    c0 = _int_if_integral(params.c0)
    w = j - i
    mx, my = gaudin_matrices(d, i, j, params)

    trace = mx[0][0] + mx[1][1]
    xd_yd = XYPoly.monomial(d, 0) - XYPoly.monomial(0, d)
    trace_ok = trace == xd_yd.scale(ki + kj) and trace == my[0][0] + my[1][1]
    det_x = mx[0][0] * mx[1][1] - mx[0][1] * mx[1][0]
    det_y = my[0][0] * my[1][1] - my[0][1] * my[1][0]
    det_expected = (xd_yd * xd_yd).scale(ki * kj) - XYPoly.monomial(d, d, c0 ** 2)
    det_ok = det_x == det_expected and det_y == det_expected

    # Discriminant of the shared characteristic polynomial, symmetric form.
    delta = ki - kj
    disc = trace * trace - det_expected.scale(4)
    disc_expected = (
        XYPoly.monomial(2 * d, 0, delta ** 2)
        + XYPoly.monomial(d, d, 2 * (2 * c0 ** 2 - delta ** 2))
        + XYPoly.monomial(0, 2 * d, delta ** 2)
    )
    discriminant_ok = disc == disc_expected

    def poly_kk(a, b) -> XYPoly:
        return XYPoly.monomial(d, 0, a) + XYPoly.monomial(0, d, b)

    regimes = []
    if delta == 0 and d % 2 == 0:
        half = d // 2
        minus = _vector_from_exponents(((half - w, 0, 1), (0, half - w, -1)))
        plus = _vector_from_exponents(((half - w, 0, 1), (0, half - w, 1)))
        lam = xd_yd.scale(ki)
        bump = XYPoly.monomial(half, half, c0)
        regimes.append(
            _regime_check("equal-ksharp", mx, my, minus, lam + bump, lam - bump)
        )
        regimes.append(
            _regime_check("equal-ksharp", mx, my, plus, lam - bump, lam + bump)
        )
    if delta ** 2 == c0 ** 2:
        # delta = sign * c0, and c0 != 0 fixes the sign
        sign = 1 if delta == c0 else -1
        name = "gap+c0" if sign == 1 else "gap-c0"
        v1 = (XYPoly.monomial(0, w), XYPoly.monomial(w, 0, sign))
        v2 = (XYPoly.monomial(d - w, 0), XYPoly.monomial(0, d - w, -sign))
        regimes.append(
            _regime_check(name, mx, my, v1, poly_kk(kj, -ki), poly_kk(ki, -kj))
        )
        regimes.append(
            _regime_check(name, mx, my, v2, poly_kk(ki, -kj), poly_kk(kj, -ki))
        )

    if not regimes:
        candidates = [
            poly_kk(delta, delta) * poly_kk(delta, delta),
            poly_kk(delta, -delta) * poly_kk(delta, -delta),
        ]
        if d % 2 == 0:
            mid = XYPoly.monomial(d // 2, d // 2, 2 * c0)
            candidates.append(mid * mid)
        if any(disc == cand for cand in candidates):
            raise DiscriminantMismatch(
                "discriminant matched a square pattern outside every regime"
            )
        raise RegimeMismatch(
            (i, j),
            f"ksharp difference {delta} is neither 0 (d even) nor +-c0; "
            f"certified irreducible, discriminant is none of the monomial "
            f"square patterns",
        )

    return GaudinReport(d, i, j, trace_ok, det_ok, discriminant_ok, tuple(regimes))
