"""Level-d Fock space over U_q(sl_infinity).

Symbols are charged bead sequences stored finitely: each row keeps its charge
r_i together with the partition of bead displacements, the bead at position k
of row i having value k + lambda_{r_i - k + 1} (zero displacement beyond the
partition).  A `Symbol` is a validated tuple (charges, rows), so it compares
and hashes as that tuple: hash(sym) == hash((charges, rows)).  The Chevalley
operator F acts through the comultiplication Delta(F) = F (x) K + 1 (x) F, so
F at node m picks up q^(sum of K-weights of the later rows).

Each row is a level-1 Fock space, on which F_m^2 = 0, so the divided power
F_m^(k) is a sum over the k-subsets S of rows lowerable at m: move the bead
m -> m+1 in every row of S at once, weighted by q^e with e the sum of eps_i
over j in S and i > j not in S, eps_i the K_m-weight of row i.  No power of
F_m is formed and nothing is divided (`divided_power_f`).  Each distinct row
(charge, partition) gets its K_m-weight and its moved row once per build of
`canonical_basis`.  Coefficients are shared, never copied: a target reached
from one source term takes that term's coefficient times q^e, which is the
coefficient itself when e = 0 and, for a monomial, one `LaurentPoly` per
(exponent, coefficient) for the whole build.  Only a target reached twice sums
its coefficients, trimmed of zeros once per divided power.

A symbol is standard when its bead columns weakly increase down the rows, and
`enumerate_standard_symbols` generates rows under that rule.  The tests check
this rule against the crystal closure of the highest weight under `crystal_f`
at every charge vector with entries 0..6 and r_d = 0, up to n = 9, 8, 6, 5, 4
for d = 1..5.  The canonical
basis is computed by the Leclerc-Toffin correction algorithm, by induction on
the peel: one peel step writes sym as F_m^(k) of a lower standard symbol sym',
and b(sym) starts from F_m^(k) b(sym').  F_m^(k) commutes with the bar
involution on the submodule generated by the highest-weight vector, so the
start is bar-invariant, and a bar-invariant vector congruent to sym modulo q
times the standard lattice is unique.  The Fock space is a tensor product of
level-1 Fock spaces, one per row, and a tensor product of based modules is
triangular (Lusztig, Introduction to Quantum Groups, 27.3): ranking a symbol by
its row sizes read last row first (`_rank`), every other standard term of the
start and of b(sym) ranks below sym.  So each height is built once, in
increasing rank, and every correction uses a vector already built.
The constructible characters (`lm_constructible`) are these vectors at
q = 1, each an ``IdCounts`` whose shapes are numbered as the JM cells' are.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .combinatorics import (
    IdCounts,
    Partition,
    components_sort_key,
    components_text,
    is_partition,
    shape_index,
)
from .laurent import LaurentPoly, _trimmed_poly, bar_symmetric_head, one, zero


class LeadingTermMismatch(ArithmeticError):
    """A divided-power start vector lacks constant term 1 at its own symbol."""


class NonTerminating(RuntimeError):
    """The build order did not provide a vector that was already built.

    b(sym) starts from F_m^(k) b(sym'), and its peel parent sym' must be standard.
    Triangularity makes each violator cleared for a symbol rank strictly below
    the one before it, the first below the symbol itself; a violator that does
    not would need a vector not yet built, and the loop would not end.
    """


class LatticeViolation(ArithmeticError):
    """A canonical-basis vector left the standard lattice.

    Its coefficient at its own symbol must lie in 1 + qZ[q] and every other
    coefficient in qZ[q].
    """


class MissingBead(LookupError):
    """A row has no bead at the value its caller guarantees one."""


class PositivityWarning(UserWarning):
    """A canonical-basis coefficient fell outside N[q]."""


class NegativeMultiplicity(ValueError):
    """A canonical-basis coefficient is negative at q = 1, so the vector is
    not a character."""


class _SymbolFields(NamedTuple):
    charges: tuple[int, ...]
    rows: tuple[Partition, ...]


class Symbol(_SymbolFields):
    """A d-row symbol: weakly decreasing charges plus displacement partitions.

    A validated, immutable tuple (charges, rows): it hashes, compares, pickles
    and copies as that tuple, so hash(sym) == hash((sym.charges, sym.rows)).
    """

    __slots__ = ()

    def __new__(cls, charges: tuple[int, ...], rows: tuple[Partition, ...]):
        if len(charges) != len(rows) or not charges:
            raise ValueError("need one displacement partition per charge")
        if any(charges[i] < charges[i + 1] for i in range(len(charges) - 1)):
            raise ValueError("charges must be weakly decreasing")
        for parts in rows:
            if not is_partition(parts):
                raise ValueError(f"invalid displacement partition {parts!r}")
        return tuple.__new__(cls, (charges, rows))

    @property
    def d(self) -> int:
        return len(self.charges)

    @property
    def height(self) -> int:
        return sum(sum(parts) for parts in self.rows)

    def _moved(self, idx: int, parts: Partition) -> "Symbol":
        """The symbol with row idx (0-based) replaced by parts, a row that a
        bead move produced, so left unvalidated."""
        return _unchecked_symbol(
            self.charges, self.rows[:idx] + (parts,) + self.rows[idx + 1 :]
        )

    def text(self) -> str:
        """The rows' texts joined by '|', each row's text made once per
        distinct partition (`components_text`)."""
        return components_text(self.rows)

    def __repr__(self):
        return f"Symbol(r={','.join(map(str, self.charges))}; {self.text()})"


def _unchecked_symbol(charges: tuple[int, ...], rows: tuple[Partition, ...]) -> Symbol:
    """A Symbol built without validation, for rows derived from a valid symbol.

    Moving a bead to a free neighbouring value keeps every row a partition and
    leaves the charges alone, so the bead moves below skip re-checking them.
    """
    return tuple.__new__(Symbol, (charges, rows))


def highest_weight_symbol(charges: tuple[int, ...]) -> Symbol:
    return Symbol(tuple(charges), ((),) * len(charges))


def symbol_sort_key(sym: Symbol):
    """The rows' sort keys in order, each row's key made once per distinct
    partition (`components_sort_key`)."""
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
    raise MissingBead(f"no bead {v} in row (charge {charge}, {parts})")


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
        """The stored coefficient at sym, or a new zero when sym is absent."""
        c = self.terms.get(sym)
        return zero() if c is None else c

    def support(self) -> tuple[Symbol, ...]:
        """The symbols in the order of `symbol_sort_key`, whose row keys are
        made once per distinct partition."""
        return tuple(sorted(self.terms, key=symbol_sort_key))

    def __add__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for sym, poly in other.terms.items():
            c = out.get(sym)
            out[sym] = (zero() if c is None else c) + poly
        return FockVector(out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        out = dict(self.terms)
        for sym, poly in other.terms.items():
            c = out.get(sym)
            out[sym] = (zero() if c is None else c) - poly
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


def _trimmed_vector(terms: dict[Symbol, LaurentPoly]) -> FockVector:
    """A FockVector holding terms as given: every coefficient is nonzero."""
    vec = object.__new__(FockVector)
    vec.terms = terms
    return vec


def _lower(
    m: int,
    k: int,
    vec: FockVector,
    table: dict[tuple[int, Partition], tuple[int, Partition | None]],
    monomials: dict[tuple[int, int], LaurentPoly],
) -> FockVector:
    """F_m^(k) vec, summed over the k-subsets S of the rows lowerable at m.

    See `divided_power_f` for the exponent e of each subset.  The `below` of a
    row j is the K_m-weight of all rows after j, and the rows of S after j
    weigh +1 each, so e is the sum of `below` over S minus C(k, 2).  Each
    term's rows are scanned once, last row first, `below` kept as a running
    sum; a term with fewer than k lowerable rows is skipped.  A row's K_m-weight
    and its lowered row are read from `table`, which maps (charge, parts) to
    (weight, lowered parts or None) at this m and is filled on first sight:
    `canonical_basis` keeps one per node for the whole build.

    A target reached from one source term gets that term's coefficient times
    q^e: the coefficient itself when e = 0, else, for a monomial c q^x, the
    `LaurentPoly` that `monomials` holds for (x + e, c), made on first sight
    and shared by every vector of the build.  Coefficients are never mutated,
    so sharing them is safe.  Only a target reached twice sums its
    coefficients, as an exponent -> integer dict trimmed of zeros at the end.
    """
    out: dict[Symbol, tuple[LaurentPoly, int] | dict[int, int]] = {}
    pairs = k * (k - 1) // 2
    for sym, coeff in vec.terms.items():
        charges, rows = sym
        below = 0
        lowerable = []  # (row, its below, its row with the bead moved), last row first
        for j in range(len(rows) - 1, -1, -1):
            row = (charges[j], rows[j])
            if (w := table.get(row)) is None:
                e = _row_eps(*row, m)
                table[row] = w = (e, _row_move(*row, m, 1) if e == 1 else None)
            e, moved = w
            if e == 1:
                lowerable.append((j, below, moved))
            below += e
        if len(lowerable) < k:
            continue
        for subset in combinations(lowerable, k):
            new = list(rows)
            shift = -pairs
            for j, b, parts in subset:
                new[j] = parts
                shift += b
            target = _unchecked_symbol(charges, tuple(new))
            acc = out.get(target)
            if acc is None:  # the first source term: (its coefficient, shift)
                out[target] = (coeff, shift)
                continue
            if type(acc) is tuple:  # the second: start summing
                first, e0 = acc
                out[target] = acc = {e + e0: c for e, c in first.coeffs.items()}
            for e, c in coeff.coeffs.items():
                e += shift
                acc[e] = acc.get(e, 0) + c
    terms = {}
    for target, acc in out.items():
        if type(acc) is tuple:
            coeff, shift = acc
            if not shift:
                terms[target] = coeff
                continue
            if len(coeff.coeffs) > 1:
                terms[target] = _trimmed_poly(
                    {e + shift: c for e, c in coeff.coeffs.items()}
                )
                continue
            ((e, c),) = coeff.coeffs.items()
            e += shift
        else:
            if not all(acc.values()):
                acc = {e: c for e, c in acc.items() if c}
            if len(acc) != 1:
                if acc:
                    terms[target] = _trimmed_poly(acc)
                continue
            ((e, c),) = acc.items()
        if (poly := monomials.get((e, c))) is None:
            monomials[e, c] = poly = _trimmed_poly({e: c})
        terms[target] = poly
    return _trimmed_vector(terms)


def f_action(m: int, vec: FockVector) -> FockVector:
    """Chevalley lowering operator F_m on the Fock space.

    On a symbol it moves the bead m -> m+1 in every row where that is possible,
    the row-j term weighted by q to the sum of K_m-weights of the rows below j.
    """
    return _lower(m, 1, vec, {}, {})


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
    return _lower(m, mult, vec, {}, {})


# Not called here, but tests use both and perfbench/tracing.py wraps crystal_f.
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


@dataclass(frozen=True)
class StandardSymbols:
    """Standard symbols by height: those whose bead columns weakly increase."""

    charges: tuple[int, ...]
    by_height: tuple[frozenset[Symbol], ...]

    def all_symbols(self) -> frozenset[Symbol]:
        return frozenset().union(*self.by_height)


def _rows_above(low: Partition, g: int, budget: int) -> list[tuple[Partition, int]]:
    """Every row that may sit above the row `low` at charge gap g, with its size.

    These are the partitions of size at most budget whose part j + g is at most
    low[j] for every j >= 0, a missing part of low read as 0, so at most
    len(low) + g parts.  Each is grown one part at a time, each part at most
    the one before it, its bound from low and what is left of the budget.
    """
    found = [((), 0)]
    for parts, size in found:  # extended while read: each row is grown once
        j = len(parts)
        if j == len(low) + g:
            continue
        top = budget - size
        if j:
            top = min(top, parts[-1])
        if j >= g:
            top = min(top, low[j - g])
        found.extend((parts + (p,), size + p) for p in range(1, top + 1))
    return found


def enumerate_standard_symbols(charges: tuple[int, ...], n: int) -> StandardSymbols:
    """The standard symbols of every height h <= n, generated by the column rule.

    Consecutive rows, with gap g = r_i - r_{i+1}, have parts_i[j + g] <=
    parts_{i+1}[j] for every j >= 0, a missing part read as 0 (bead
    beta_i(k) <= beta_{i+1}(k) for k <= r_{i+1}).  The rows are built last row
    first, each row among the `_rows_above` the row below it within what is
    left of n; the last row is bounded by n alone.  An empty row may sit above
    any row, so every partial symbol grows into at least one standard symbol
    and only standard symbols are visited.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    charges = highest_weight_symbol(charges).charges  # validates the charges
    # a gap of n bounds nothing: a row of size at most n has at most n parts
    partial: list[tuple[tuple[Partition, ...], int]] = [
        ((parts,), size) for parts, size in _rows_above((), n, n)
    ]
    for g in reversed([a - b for a, b in zip(charges, charges[1:])]):
        partial = [
            ((parts,) + rows, size + grown)
            for rows, size in partial
            for parts, grown in _rows_above(rows[0], g, n - size)
        ]
    layers: list[set[Symbol]] = [set() for _ in range(n + 1)]
    for rows, size in partial:
        layers[size].add(_unchecked_symbol(charges, rows))
    return StandardSymbols(charges, tuple(map(frozenset, layers)))


def _peel_step(sym: Symbol) -> tuple[tuple[int, int], Symbol] | None:
    """One peel step: ((node, multiplicity), parent), or None at the highest weight.

    The smallest displaced bead value v can only sit at the last displaced
    position of a row, since bead values increase along a row.  The rows
    raiseable at node m = v - 1 are exactly those whose last displaced bead
    has value v: every other bead of a row lies above v or below m.  Every
    bead of value v is lowered to m at once, by decrementing its row's last
    part (a zero part is dropped); their count is the divided-power
    multiplicity at m.  The parent has strictly smaller height.
    """
    charges, rows = sym
    # one below each row's last displaced bead, at r - len(parts) + 1 + parts[-1]
    lows = [r - len(parts) + parts[-1] for r, parts in zip(charges, rows) if parts]
    if not lows:
        return None
    m = min(lows)
    mult = 0
    parent = []
    for r, parts in zip(charges, rows):
        if parts and r - len(parts) + parts[-1] == m:
            mult += 1
            parts = parts[:-1] + (parts[-1] - 1,) if parts[-1] > 1 else parts[:-1]
        parent.append(parts)
    return (m, mult), _unchecked_symbol(charges, tuple(parent))


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


def _check_leading_term(sym: Symbol, vec: FockVector) -> None:
    if (coeff := vec.coefficient(sym)).constant_term() != 1:
        raise LeadingTermMismatch(f"start for {sym!r} has coefficient {coeff.text()}")


def intermediate_A(sym: Symbol) -> FockVector:
    """Divided-power monomial of sym's peeling word on the highest-weight vector.

    The product of the factors of `lt_monomial(sym)`, innermost first.
    Bar-invariant by construction; its coefficient at sym must have constant
    term one, else LeadingTermMismatch.  `canonical_basis` does not use it: it
    starts each vector from the canonical basis vector of the peel parent.
    """
    vec = FockVector.unit(highest_weight_symbol(sym.charges))
    for m, mult in reversed(lt_monomial(sym)):
        vec = divided_power_f(m, mult, vec)
    _check_leading_term(sym, vec)
    return vec


def _rank(sym: Symbol) -> tuple[int, ...]:
    """The correction's triangular order: row sizes, last row first.

    Every standard term of F_m^(k) b(sym') (sym' the peel parent of sym) or of
    b(sym) other than sym ranks strictly below sym.
    """
    return tuple(sum(parts) for parts in reversed(sym.rows))


def canonical_basis(
    charges: tuple[int, ...], n: int, *, reverse_ties: bool = False
) -> dict[Symbol, FockVector]:
    """Canonical basis vectors b for every standard symbol of height <= n.

    Each b is bar-invariant and congruent to its standard basis vector modulo
    q times the standard lattice.  Each height is built in increasing `_rank`.
    b(sym) starts from F_m^(k) b(sym'), (m, k) and sym' from one `_peel_step`;
    the start must have constant term 1 at sym (else LeadingTermMismatch), and
    as it is bar-invariant, the result is b(sym) by uniqueness.  Every standard
    coefficient not in qZ[q] is cleared, highest-ranked violator first, with
    the bar-symmetric correction it determines.  A vector not yet built (a
    non-standard parent, or a violator not ranking strictly below the one
    cleared before it, the first below sym) raises NonTerminating.  Each
    correction round reads the vector once (`_violators`), and the round that
    finds no violator checks it against the standard lattice.  The divided
    powers share one `_lower` row table per node, and one table of monomial
    coefficients, for the build.
    Symbols of equal rank are ordered by `rows`, and `reverse_ties` flips that
    tie-break; the result must not change.
    """
    component = enumerate_standard_symbols(charges, n)
    # By height (the sum of the rank), then rank; equal ranks by rows (a stable
    # sort keeps the tie-break).
    order = sorted(component.all_symbols(), key=lambda s: s.rows, reverse=reverse_ties)
    order.sort(key=lambda s: (sum(r := _rank(s)), r))
    position = {sym: i for i, sym in enumerate(order)}

    tables: dict[int, dict] = {}  # node m -> the `_lower` row table at m
    monomials: dict[tuple[int, int], LaurentPoly] = {}  # shared by every vector
    basis: dict[Symbol, FockVector] = {}
    for sym in order:
        step = _peel_step(sym)
        if step is None:
            cur = FockVector.unit(sym)
        else:
            (m, mult), parent = step
            if parent not in basis:
                raise NonTerminating(
                    f"{sym!r} peels to {parent!r}, which is not a standard symbol"
                )
            cur = _lower(m, mult, basis[parent], tables.setdefault(m, {}), monomials)
            _check_leading_term(sym, cur)

        last = position[sym]
        while violators := _violators(sym, cur, position):
            i = max(violators)
            if i >= last:
                raise NonTerminating(
                    f"correction for {sym!r} reached {order[i]!r}, "
                    f"which does not rank below {order[last]!r}"
                )
            last = i
            gamma = bar_symmetric_head(cur.coefficient(order[i]))
            cur = cur - basis[order[i]].scale(gamma)
        basis[sym] = cur
    return basis


def _violators(sym: Symbol, vec: FockVector, position: dict[Symbol, int]) -> list[int]:
    """The positions of the standard symbols other than sym whose coefficients
    in vec lie outside qZ[q], read in one pass over vec.

    When there are none, the same pass has checked vec against the standard
    lattice: it raises LatticeViolation at the first coefficient off it, else
    warns PositivityWarning once if any coefficient is negative.  Its
    coefficient at sym must lie in 1 + qZ[q] and every other one in qZ[q].
    """
    violators = []
    bad = None  # the first term off the lattice that no correction clears
    negative = False
    for s, c in vec.terms.items():
        coeffs = c.coeffs
        low = min(coeffs)
        if s == sym:
            if bad is None and (low < 0 or coeffs.get(0) != 1):
                bad = s, c
        elif low < 1:
            if s in position:
                violators.append(position[s])
            elif bad is None:
                bad = s, c
        negative = negative or min(coeffs.values()) < 0
    if violators:
        return violators
    if bad is not None:
        s, c = bad
        raise LatticeViolation(
            f"coefficient {c.text()} at {s!r} in the vector for {sym!r}"
        )
    if negative:
        warnings.warn(
            f"canonical basis vector for {sym!r} has a negative coefficient",
            PositivityWarning,
            stacklevel=2,
        )
    return violators


def lm_constructible(
    charges: tuple[int, ...], heights
) -> dict[int, dict[Symbol, IdCounts]]:
    """Leclerc-Miyachi constructible characters of G(d,1,n) at these charges,
    for each height n, as ``IdCounts`` keyed by the standard symbols of
    height n, all read off one canonical basis built to the largest.

    ``canonical_basis(charges, n)`` holds ``canonical_basis(charges, k)`` for
    every k <= n, since each vector is built from vectors of its own height
    and of its peel parent's.  Each term's rows, a d-partition, get their
    ``shape_index`` id, and its coefficient is read at q = 1: a zero is
    dropped, and a negative one raises `NegativeMultiplicity`.  A negative
    height raises ValueError before anything is built.
    """
    charges = tuple(charges)
    heights = sorted(set(heights))
    if not heights:
        raise ValueError("need at least one height")
    if heights[0] < 0:
        raise ValueError("n must be nonnegative")
    basis = canonical_basis(charges, max(heights))
    index = {n: shape_index(len(charges), n) for n in heights}
    out: dict[int, dict[Symbol, IdCounts]] = {n: {} for n in heights}
    for sym, vec in basis.items():
        if (n := sym.height) in out:
            ids = []
            for s, c in vec.terms.items():
                m = c.eval_at_one()
                if m > 0:
                    ids.append((index[n][s.rows], m))
                elif m < 0:
                    raise NegativeMultiplicity(
                        f"coefficient {c.text()} at {s!r} in the vector for {sym!r}"
                        " is negative at q = 1"
                    )
            ids.sort()
            out[n][sym] = tuple(ids)
    return out
