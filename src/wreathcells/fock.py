"""Level-d Fock space over U_q(sl_infinity).

Symbols are charged bead sequences stored finitely: each row keeps its charge
r_i together with the partition of bead displacements, the bead at position k
of row i having value k + lambda_{r_i - k + 1} (zero displacement beyond the
partition).  Chevalley operators act through the comultiplication
Delta(F) = F (x) K + 1 (x) F and Delta(E) = E (x) 1 + K^-1 (x) E, so F at node
m picks up q^(sum of K-weights of the later rows) and E the inverse weights of
the earlier rows.

Each row is a level-1 Fock space, on which F_m^2 = 0, so the divided power
F_m^(k) is a sum over the k-subsets S of rows lowerable at m: move the bead
m -> m+1 in every row of S at once, weighted by q^e with e the sum of eps_i
over j in S and i > j not in S, eps_i the K_m-weight of row i.  No power of
F_m is formed and nothing is divided (`divided_power_f`).

Standardness of a symbol is taken operationally: the crystal component of the
highest-weight symbol under the signature-rule operator `crystal_f`.  The
canonical basis is computed by the Leclerc-Toffin correction algorithm on top
of the intermediate basis of divided-power monomials.  The Fock space is a
tensor product of level-1 Fock spaces, one per row, and a tensor product of
based modules is triangular (Lusztig, Introduction to Quantum Groups, 27.3):
ranking a symbol by its row sizes read last row first (`_rank`), every other
standard term of A(sym) and b(sym) ranks below sym.  So each height is built
once, in increasing rank, and every correction uses a vector already built.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations

from .combinatorics import (
    CharacterSum,
    DPartition,
    Partition,
    components_sort_key,
    components_text,
    is_partition,
)
from .laurent import LaurentPoly, bar_symmetric_head, one, zero


class LeadingTermMismatch(ArithmeticError):
    """A divided-power monomial failed to have unit leading coefficient."""


class NonTerminating(RuntimeError):
    """The correction loop met a violator that does not rank below the last.

    Triangularity makes each violator cleared for a symbol rank strictly below
    the one before it, the first below the symbol itself; a violator that does
    not would need a vector not yet built, and the loop would not end.
    """


class LatticeViolation(ArithmeticError):
    """A canonical-basis vector left the standard lattice.

    Its coefficient at its own symbol must lie in 1 + qZ[q] and every other
    coefficient in qZ[q].
    """


class PositivityWarning(UserWarning):
    """A canonical-basis coefficient fell outside N[q]."""


@dataclass(frozen=True)
class Symbol:
    """A d-row symbol: weakly decreasing charges plus displacement partitions."""

    __slots__ = ("charges", "rows")

    charges: tuple[int, ...]
    rows: tuple[Partition, ...]

    def __post_init__(self):
        if len(self.charges) != len(self.rows) or not self.charges:
            raise ValueError("need one displacement partition per charge")
        if any(self.charges[i] < self.charges[i + 1] for i in range(len(self.charges) - 1)):
            raise ValueError("charges must be weakly decreasing")
        for parts in self.rows:
            if not is_partition(parts):
                raise ValueError(f"invalid displacement partition {parts!r}")

    @property
    def d(self) -> int:
        return len(self.charges)

    @property
    def height(self) -> int:
        return sum(sum(parts) for parts in self.rows)

    def beta(self, i: int, k: int) -> int:
        """Bead value at position k of row i (i is 1-based, k <= r_i)."""
        if not 1 <= i <= self.d:
            raise ValueError(f"no row {i} in a symbol with {self.d} rows")
        r = self.charges[i - 1]
        if k > r:
            raise ValueError(f"row {i} has no position {k} (charge {r})")
        parts = self.rows[i - 1]
        j = r - k  # 0-based index into the displacement partition
        return k + (parts[j] if j < len(parts) else 0)

    def with_row(self, idx: int, parts: Partition) -> "Symbol":
        """The symbol with row idx (0-based) replaced by parts."""
        if not 0 <= idx < self.d:
            raise ValueError(f"no row index {idx} in a symbol with {self.d} rows")
        parts = tuple(parts)
        if not is_partition(parts):
            raise ValueError(f"invalid displacement partition {parts!r}")
        return self._moved(idx, parts)

    def _moved(self, idx: int, parts: Partition) -> "Symbol":
        """with_row for a row that a bead move produced, left unvalidated."""
        return _unchecked_symbol(
            self.charges, self.rows[:idx] + (parts,) + self.rows[idx + 1 :]
        )

    def weight(self) -> tuple[tuple[int, int], ...]:
        """Finite fingerprint of the sl_infinity weight.

        Maps each bead value v to (number of rows containing v) minus the same
        count for the highest-weight symbol; only nonzero differences are kept.
        """
        delta: dict[int, int] = {}
        for r, parts in zip(self.charges, self.rows):
            s = len(parts)
            for j in range(1, s + 1):
                val = r - j + 1 + parts[j - 1]
                baseline = r - j + 1
                delta[val] = delta.get(val, 0) + 1
                delta[baseline] = delta.get(baseline, 0) - 1
        return tuple(sorted((v, c) for v, c in delta.items() if c))

    def text(self) -> str:
        return components_text(self.rows)

    def __repr__(self):
        return f"Symbol(r={','.join(map(str, self.charges))}; {self.text()})"

    def __reduce__(self):
        # slots leave no __dict__ to restore, and a frozen instance refuses setattr
        return Symbol, (self.charges, self.rows)


def _unchecked_symbol(charges: tuple[int, ...], rows: tuple[Partition, ...]) -> Symbol:
    """A Symbol built without validation, for rows derived from a valid symbol.

    Moving a bead to a free neighbouring value keeps every row a partition and
    leaves the charges alone, so the bead moves below skip re-checking them.
    """
    sym = object.__new__(Symbol)
    object.__setattr__(sym, "charges", charges)
    object.__setattr__(sym, "rows", rows)
    return sym


def highest_weight_symbol(charges: tuple[int, ...]) -> Symbol:
    return Symbol(tuple(charges), ((),) * len(charges))


def symbol_from_dpartition(dp: DPartition, charges: tuple[int, ...]) -> Symbol:
    """Attach charges to a d-partition of displacements."""
    return Symbol(tuple(charges), dp.components)


def dpartition_from_symbol(sym: Symbol) -> DPartition:
    return DPartition(sym.rows)


def symbol_sort_key(sym: Symbol):
    return components_sort_key(sym.rows)


# Row-local bead mechanics.  A row is (charge, parts): every value up to
# charge - len(parts) holds an undisplaced bead, and the displaced bead at
# 0-based index j has value charge - j + parts[j], decreasing in j.


def _row_eps(charge: int, parts: Partition, m: int) -> int:
    """K_m weight of the row, in one pass over its displaced beads.

    +1 when a bead sits at m and none at m+1 (lowerable), -1 when a bead sits
    at m+1 and none at m (raiseable), 0 otherwise.
    """
    top = charge - len(parts)
    has_m, has_m1 = m <= top, m + 1 <= top
    for j, p in enumerate(parts):
        v = charge - j + p
        if v < m:
            break
        if v == m:
            has_m = True
        elif v == m + 1:
            has_m1 = True
    return has_m - has_m1


def _row_move(charge: int, parts: Partition, v: int, step: int) -> Partition:
    """Move the bead at v to v + step (step is 1 or -1), trimming trailing zeros.

    The caller guarantees a bead at v and a free value at v + step, so the
    result is again a partition.
    """
    if v == charge - len(parts):  # the top undisplaced bead; only rises
        return parts + (1,)
    for j, p in enumerate(parts):
        if charge - j + p == v:
            moved = parts[:j] + (p + step,) + parts[j + 1 :]
            return moved[:-1] if not moved[-1] else moved
    raise ValueError(f"no bead {v} in row (charge {charge}, {parts})")


def _weights(sym: Symbol, m: int) -> list[int]:
    """The K_m weight of every row of sym, first row first."""
    return [_row_eps(r, parts, m) for r, parts in zip(sym.charges, sym.rows)]


class FockVector:
    """Finitely supported map Symbol -> LaurentPoly, one charge vector throughout."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        trimmed = {}
        if terms:
            for sym, poly in terms.items():
                if not poly.is_zero():
                    trimmed[sym] = poly
        self.terms = trimmed

    @classmethod
    def unit(cls, sym: Symbol) -> "FockVector":
        return cls({sym: one()})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, sym: Symbol) -> LaurentPoly:
        return self.terms.get(sym, zero())

    def support(self) -> tuple[Symbol, ...]:
        return tuple(sorted(self.terms, key=symbol_sort_key))

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for sym, poly in other.terms.items():
            out[sym] = out.get(sym, zero()) + poly
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for sym, poly in other.terms.items():
            out[sym] = out.get(sym, zero()) - poly
        return FockVector(out)

    def scale(self, poly: LaurentPoly) -> "FockVector":
        return FockVector({sym: c * poly for sym, c in self.terms.items()})

    def eval_at_one(self) -> dict[Symbol, int]:
        return {sym: c.eval_at_one() for sym, c in self.terms.items()}

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "FockVector(0)"
        body = " + ".join(
            f"({self.terms[s].text()})[{s.text()}]" for s in self.support()
        )
        return f"FockVector({body})"


def _lower(m: int, k: int, vec: FockVector) -> FockVector:
    """F_m^(k) vec, summed over the k-subsets S of the rows lowerable at m.

    See `divided_power_f` for the exponent e of each subset.  The `below` of a
    row j is the K_m-weight of all rows after j, and the rows of S after j
    weigh +1 each, so e is the sum of `below` over S minus C(k, 2).
    Coefficients are summed as exponent -> integer dicts, one per target
    symbol, and made polynomials once at the end.
    """
    out: dict[Symbol, dict[int, int]] = {}
    pairs = k * (k - 1) // 2
    for sym, coeff in vec.terms.items():
        eps = _weights(sym, m)
        below = sum(eps)
        lowerable = []  # (row, its below, its row with the bead moved)
        for j, e in enumerate(eps):
            below -= e
            if e == 1:
                lowerable.append((j, below, _row_move(sym.charges[j], sym.rows[j], m, 1)))
        for subset in combinations(lowerable, k):
            rows = list(sym.rows)
            shift = -pairs
            for j, b, parts in subset:
                rows[j] = parts
                shift += b
            _add_shifted(out, _unchecked_symbol(sym.charges, tuple(rows)), coeff, shift)
    return FockVector({sym: LaurentPoly(acc) for sym, acc in out.items()})


def _add_shifted(
    out: dict[Symbol, dict[int, int]], target: Symbol, coeff: LaurentPoly, shift: int
) -> None:
    """Add q^shift * coeff to out's exponent -> integer dict for target."""
    acc = out.get(target)
    if acc is None:
        out[target] = acc = {}
    for e, c in coeff.coeffs.items():
        e += shift
        acc[e] = acc.get(e, 0) + c


def f_action(m: int, vec: FockVector) -> FockVector:
    """Chevalley lowering operator F_m on the Fock space.

    On a symbol it moves the bead m -> m+1 in every row where that is possible,
    the row-j term weighted by q to the sum of K_m-weights of the rows below j.
    """
    return _lower(m, 1, vec)


def e_action(m: int, vec: FockVector) -> FockVector:
    """Chevalley raising operator E_m, mirror of f_action on the earlier rows."""
    out: dict[Symbol, dict[int, int]] = {}
    for sym, coeff in vec.terms.items():
        above = 0
        for j, e in enumerate(_weights(sym, m)):
            if e == -1:
                target = sym._moved(j, _row_move(sym.charges[j], sym.rows[j], m + 1, -1))
                _add_shifted(out, target, coeff, -above)
            above += e
    return FockVector({sym: LaurentPoly(acc) for sym, acc in out.items()})


def divided_power_f(m: int, mult: int, vec: FockVector) -> FockVector:
    """Divided power F_m^(mult) = F_m^mult / [mult]!, in closed form.

    Each row is a level-1 Fock space, where F_m^2 = 0, so iterating
    Delta(F) = F (x) K + 1 (x) F gives a sum over the mult-subsets S of the
    rows lowerable at m.  Each S moves the bead m -> m+1 in all its rows at
    once, weighted by q^e with

        e = sum over j in S of sum over i > j, i not in S, of eps_i,

    eps_i the K_m-weight of row i.  Applying F_m to the rows of S one at a
    time, a later row of S weighs +1 before it moves and -1 after, so the
    mult! orders give sum q^(C(mult, 2) - 2 inv) = [mult]! and the division
    is exact term by term.  Fewer than mult lowerable rows give zero.

    >>> top = FockVector.unit(highest_weight_symbol((0, 0)))
    >>> divided_power_f(0, 2, top)
    FockVector((1)[1|1])
    """
    if mult < 1:
        raise ValueError("divided power needs mult >= 1")
    return _lower(m, mult, vec)


def crystal_signature(m: int, sym: Symbol) -> tuple[int | None, int]:
    """(surviving row index or None, count of surviving '+' rows) at node m.

    Rows are read 1..d and marked '-' when lowerable at m, '+' when raiseable.
    Adjacent '+-' pairs (a raiseable row immediately before a lowerable one,
    after iterated cancellation) cancel; the survivor is the rightmost '-'
    row left.  This is the tensor-product crystal rule matching the
    comultiplication behind f_action: the survivor's f_action exponent is
    minus the number of surviving '+' rows.
    """
    survivors: list[int] = []
    pending_plus = 0
    for j, e in enumerate(_weights(sym, m)):
        if e == 1:
            if pending_plus:
                pending_plus -= 1
            else:
                survivors.append(j)
        elif e == -1:
            pending_plus += 1
    return (survivors[-1] if survivors else None, pending_plus)


def crystal_f(m: int, sym: Symbol) -> Symbol | None:
    """Kashiwara lowering at node m via the signature rule.

    Moves the bead in the row `crystal_signature` picks, or returns None when
    no lowerable row survives the cancellation.
    """
    j, _ = crystal_signature(m, sym)
    if j is None:
        return None
    return sym._moved(j, _row_move(sym.charges[j], sym.rows[j], m, 1))


def _candidate_nodes(sym: Symbol) -> list[int]:
    """Nodes where some row is lowerable (at its top undisplaced or a displaced bead)."""
    nodes = set()
    for r, parts in zip(sym.charges, sym.rows):
        for v in [r - len(parts)] + [r - j + p for j, p in enumerate(parts)]:
            if _row_eps(r, parts, v) == 1:
                nodes.add(v)
    return sorted(nodes)


@dataclass(frozen=True)
class CrystalComponent:
    """Standard symbols: the crystal component of the highest-weight symbol."""

    charges: tuple[int, ...]
    by_height: tuple[frozenset[Symbol], ...]

    def all_symbols(self) -> frozenset[Symbol]:
        return frozenset().union(*self.by_height)


def enumerate_standard_symbols(charges: tuple[int, ...], n: int) -> CrystalComponent:
    """Breadth-first closure of the highest-weight symbol under crystal_f."""
    charges = tuple(charges)
    start = highest_weight_symbol(charges)
    layers = [frozenset([start])]
    for h in range(n):
        nxt = set()
        for sym in layers[h]:
            for m in _candidate_nodes(sym):
                child = crystal_f(m, sym)
                if child is not None:
                    nxt.add(child)
        layers.append(frozenset(nxt))
    return CrystalComponent(charges, tuple(layers))


def _peel_step(sym: Symbol) -> tuple[tuple[int, int], Symbol] | None:
    """One peel step: ((node, multiplicity), parent), or None at the highest weight.

    The smallest displaced bead value v can only sit at the last displaced
    position of a row, since bead values increase along a row.  Every bead of
    value v is lowered to v - 1 at once; their count is the divided-power
    multiplicity at node v - 1.  The parent has strictly smaller height.
    """
    lows = [
        r - len(parts) + 1 + parts[-1]
        for r, parts in zip(sym.charges, sym.rows)
        if parts
    ]
    if not lows:
        return None
    m = min(lows) - 1
    # A row is raiseable at m exactly when its last displaced bead has value m + 1.
    eps = _weights(sym, m)
    rows = tuple(
        _row_move(r, parts, m + 1, -1) if e == -1 else parts
        for r, parts, e in zip(sym.charges, sym.rows, eps)
    )
    return (m, eps.count(-1)), _unchecked_symbol(sym.charges, rows)


def lt_monomial(sym: Symbol) -> tuple[tuple[int, int], ...]:
    """Peeling word (node, multiplicity), outermost factor first.

    `_peel_step` repeated down to the highest-weight symbol.
    """
    word = []
    step = _peel_step(sym)
    while step is not None:
        factor, sym = step
        word.append(factor)
        step = _peel_step(sym)
    return tuple(word)


def _monomial(sym: Symbol, monomials: Mapping[Symbol, FockVector]) -> FockVector:
    step = _peel_step(sym)
    if step is None:
        return FockVector.unit(sym)
    (m, mult), parent = step
    base = monomials.get(parent)
    if base is None:
        base = _monomial(parent, monomials)
    return divided_power_f(m, mult, base)


def intermediate_A(
    sym: Symbol, monomials: Mapping[Symbol, FockVector] | None = None
) -> FockVector:
    """Divided-power monomial of sym's peeling word on the highest-weight vector.

    Built as F_m^(k) A(parent), where (m, k) and parent come from one peel
    step.  A(parent) is read from `monomials` when it is there and otherwise
    built the same way, down the peel.  Bar-invariant by construction; its
    coefficient at sym must have constant term one, else LeadingTermMismatch.
    """
    vec = _monomial(sym, monomials or {})
    if vec.coefficient(sym).constant_term() != 1:
        raise LeadingTermMismatch(
            f"monomial for {sym!r} has leading coefficient "
            f"{vec.coefficient(sym).text()}"
        )
    return vec


def _rank(sym: Symbol) -> tuple[int, ...]:
    """The correction's triangular order: row sizes, last row first.

    Every standard term of A(sym) or b(sym) other than sym ranks strictly
    below sym.
    """
    return tuple(sum(parts) for parts in reversed(sym.rows))


def canonical_basis(
    charges: tuple[int, ...], n: int, *, reverse_ties: bool = False
) -> dict[Symbol, FockVector]:
    """Canonical basis vectors b for every standard symbol of height <= n.

    Each b is bar-invariant and congruent to its standard basis vector modulo
    q times the standard lattice.  Each height is built in increasing `_rank`,
    from the intermediate monomial A(sym), by clearing every standard
    coefficient not in qZ[q], highest-ranked violator first, with the
    bar-symmetric correction it determines.  Each violator must rank strictly
    below the one cleared before it (the first below sym), so it is already
    built and the loop ends; otherwise NonTerminating.  Symbols of equal rank
    are ordered by `rows`, and `reverse_ties` flips that tie-break; the result
    must not change.
    """
    component = enumerate_standard_symbols(charges, n)
    # By height, then rank; equal ranks by rows (a stable sort keeps the tie-break).
    order = sorted(component.all_symbols(), key=lambda s: s.rows, reverse=reverse_ties)
    order.sort(key=lambda s: (s.height, _rank(s)))
    position = {sym: i for i, sym in enumerate(order)}

    # A(sym) is kept only until every standard symbol peeling to sym is built.
    unbuilt_children = Counter(
        step[1] for step in map(_peel_step, order) if step is not None
    )
    monomials: dict[Symbol, FockVector] = {}
    basis: dict[Symbol, FockVector] = {}
    for sym in order:
        cur = intermediate_A(sym, monomials)
        if unbuilt_children[sym]:
            monomials[sym] = cur
        step = _peel_step(sym)
        if step is not None:
            parent = step[1]
            unbuilt_children[parent] -= 1
            if not unbuilt_children[parent]:
                monomials.pop(parent, None)

        last = position[sym]
        while violators := [
            position[s]
            for s, c in cur.terms.items()
            if s != sym and s in position and not c.in_q_zq()
        ]:
            i = max(violators)
            if i >= last:
                raise NonTerminating(
                    f"correction for {sym!r} reached {order[i]!r}, "
                    f"which does not rank below {order[last]!r}"
                )
            last = i
            gamma = bar_symmetric_head(cur.coefficient(order[i]))
            cur = cur - basis[order[i]].scale(gamma)
        _check_lattice(sym, cur)
        basis[sym] = cur
    return basis


def _check_lattice(sym: Symbol, vec: FockVector) -> None:
    for s, c in vec.terms.items():
        if s == sym:
            ok = c.constant_term() == 1 and (c - one()).in_q_zq()
        else:
            ok = c.in_q_zq()
        if not ok:
            raise LatticeViolation(
                f"coefficient {c.text()} at {s!r} in the vector for {sym!r}"
            )
    if any(v < 0 for c in vec.terms.values() for v in c.coeffs.values()):
        warnings.warn(
            f"canonical basis vector for {sym!r} has a negative coefficient",
            PositivityWarning,
            stacklevel=2,
        )


@dataclass(frozen=True)
class ConstructibleCharacters:
    """Constructible characters of height n, keyed by standard symbol."""

    charges: tuple[int, ...]
    n: int
    by_symbol: dict

    def character_set(self) -> frozenset:
        return frozenset(self.by_symbol.values())

    def character_multiset(self) -> tuple:
        return tuple(sorted(self.by_symbol.values(), key=lambda cs: cs.sort_key()))


def lm_constructible(charges: tuple[int, ...], n: int) -> ConstructibleCharacters:
    """Leclerc-Miyachi constructible characters for G(d,1,n) at these charges.

    Evaluates every canonical basis vector of height n at q = 1 and reads the
    result as a character sum through the symbol / d-partition bijection.
    """
    basis = canonical_basis(charges, n)
    out = {}
    for sym, vec in basis.items():
        if sym.height != n:
            continue
        counts = {}
        for s, value in vec.eval_at_one().items():
            if value:
                counts[dpartition_from_symbol(s)] = value
        out[sym] = CharacterSum.from_counts(counts)
    return ConstructibleCharacters(tuple(charges), n, out)
