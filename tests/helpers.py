"""Shared independent oracles for the test suite.

The height-2 closed forms reconstruct, directly from the block structure of a
charge vector, the standard symbols, the q = 1 content of every intermediate
monomial, and the resulting constructible characters.  They are written from
the combinatorial description alone and never call the production pipeline,
so they can serve as an oracle for it.

`divided_power_oracle` is the oracle for the closed-form divided powers of
`wreathcells.fock.divided_power_f`: it applies `f_action` k times and divides
every coefficient by [k]! exactly.  `replayed_monomial` is the oracle for the
monomials: it applies the whole peeling word to the highest-weight vector, one
oracle divided power per factor.  `canonical_basis_from_monomials` is the
oracle for `wreathcells.fock.canonical_basis`, which starts each vector from
F_m^(k) applied to the vector of the peel parent: it starts each vector from
its replayed monomial instead, in the same order with the same corrections.

The `row_*` helpers are the oracle for the one-pass bead mechanics of
`wreathcells.fock`: each decides bead membership directly with `row_contains`.

`direct_spectrum` is the oracle for
`wreathcells.jucys_murphy.tableau_spectrum`: it evaluates
d * (ksharp(c) - c0 * content) inline for every box of a tableau.

`jm_cells_by_tableaux` is the oracle for the spectrum trie behind
`wreathcells.jm_cellular_characters`: it walks every standard tableau of
every shape and groups the tableaux by their spectra, the definition of the
JM cells.
"""

from __future__ import annotations

from fractions import Fraction

from wreathcells import (
    CellDecomposition,
    CharacterSum,
    CMParams,
    FockVector,
    StandardTableau,
    Symbol,
    bar_symmetric_head,
    enumerate_dpartitions,
    enumerate_standard_symbols,
    f_action,
    highest_weight_symbol,
    is_generic,
    lt_monomial,
    q_factorial,
    standard_tableaux,
    tableau_spectrum,
)


def direct_spectrum(params: CMParams, tab: StandardTableau) -> tuple[Fraction, ...]:
    """JM spectrum of a tableau, computed box by box inline."""
    return tuple(
        params.d * (params.ksharp(box.comp) - params.c0 * (box.col - box.row))
        for box in tab.boxes
    )


def jm_cells_by_tableaux(params: CMParams, n: int) -> CellDecomposition:
    """JM cells from grouping every standard tableau by its spectrum."""
    groups: dict[tuple[Fraction, ...], dict] = {}
    for shape in enumerate_dpartitions(params.d, n):
        for tab in standard_tableaux(shape):
            counts = groups.setdefault(tableau_spectrum(params, tab.boxes), {})
            counts[shape] = counts.get(shape, 0) + 1
    cells = tuple(
        (spec, CharacterSum.from_counts(groups[spec])) for spec in sorted(groups)
    )
    return CellDecomposition(params.d, n, cells, is_generic(params, n))


def divided_power_oracle(m: int, k: int, vec: FockVector) -> FockVector:
    """F_m^k vec / [k]!: k applications of f_action, then exact division."""
    for _ in range(k):
        vec = f_action(m, vec)
    denom = q_factorial(k)
    return FockVector({s: c.exact_div(denom) for s, c in vec.terms.items()})


def replayed_monomial(sym: Symbol) -> FockVector:
    """Divided-power monomial of sym, replayed from the highest weight."""
    vec = FockVector.unit(highest_weight_symbol(sym.charges))
    for m, mult in reversed(lt_monomial(sym)):
        vec = divided_power_oracle(m, mult, vec)
    return vec


def canonical_basis_from_monomials(
    charges: tuple[int, ...], n: int, reverse_ties: bool = False
) -> dict[Symbol, FockVector]:
    """Leclerc-Toffin from the divided-power monomials, one symbol at a time.

    Symbols are built by height, then by row sizes read last row first, equal
    ones by rows (reversed with `reverse_ties`).  Each starts from its
    replayed monomial, and the standard coefficient not in qZ[q] at the latest
    symbol in that order is cleared until none is left.
    """
    symbols = enumerate_standard_symbols(charges, n).all_symbols()
    order = sorted(symbols, key=lambda s: s.rows, reverse=reverse_ties)
    order.sort(key=lambda s: (s.height, tuple(sum(p) for p in reversed(s.rows))))
    position = {s: i for i, s in enumerate(order)}
    basis: dict[Symbol, FockVector] = {}
    for sym in order:
        cur = replayed_monomial(sym)
        while violators := [
            position[s]
            for s, c in cur.terms.items()
            if s != sym and s in position and not c.in_q_zq()
        ]:
            target = order[max(violators)]
            if position[target] >= position[sym]:
                raise RuntimeError(f"{target!r} is not built before {sym!r}")
            gamma = bar_symmetric_head(cur.coefficient(target))
            cur = cur - basis[target].scale(gamma)
        basis[sym] = cur
    return basis


def row_contains(charge: int, parts: tuple[int, ...], value: int) -> bool:
    s = len(parts)
    if value <= charge - s:
        return True
    return any(charge - j + 1 + parts[j - 1] == value for j in range(1, s + 1))


def row_lowerable(charge: int, parts: tuple[int, ...], m: int) -> bool:
    return row_contains(charge, parts, m) and not row_contains(charge, parts, m + 1)


def row_raiseable(charge: int, parts: tuple[int, ...], m: int) -> bool:
    return not row_contains(charge, parts, m) and row_contains(charge, parts, m + 1)


def row_eps(charge: int, parts: tuple[int, ...], m: int) -> int:
    """K_m weight of the row: +1, -1 or 0."""
    has_m = row_contains(charge, parts, m)
    has_m1 = row_contains(charge, parts, m + 1)
    if has_m and not has_m1:
        return 1
    if has_m1 and not has_m:
        return -1
    return 0


def row_move_up(charge: int, parts: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Move the bead m -> m+1; the row must be lowerable at m."""
    s = len(parts)
    if m == charge - s:
        return parts + (1,)
    for j in range(1, s + 1):
        if charge - j + 1 + parts[j - 1] == m:
            new = list(parts)
            new[j - 1] += 1
            return tuple(new)
    raise ValueError(f"bead {m} not movable in row (charge {charge}, {parts})")


def row_move_down(charge: int, parts: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Move the bead m+1 -> m; the row must be raiseable at m."""
    s = len(parts)
    for j in range(1, s + 1):
        if charge - j + 1 + parts[j - 1] == m + 1:
            new = list(parts)
            new[j - 1] -= 1
            while new and new[-1] == 0:
                new.pop()
            return tuple(new)
    raise ValueError(f"bead {m + 1} not movable in row (charge {charge}, {parts})")


def candidate_nodes(sym: Symbol) -> list[int]:
    """Every node at which some row of sym is lowerable."""
    nodes = set()
    for r, parts in zip(sym.charges, sym.rows):
        s = len(parts)
        if row_lowerable(r, parts, r - s):
            nodes.add(r - s)
        for j in range(1, s + 1):
            v = r - j + 1 + parts[j - 1]
            if not row_contains(r, parts, v + 1):
                nodes.add(v)
    return sorted(nodes)


def blocks_of(charges: tuple[int, ...]) -> list[tuple[list[int], int]]:
    """Maximal runs of equal charges: [(rows 1-based, value), ...]."""
    out: list[tuple[list[int], int]] = []
    for i, r in enumerate(charges, start=1):
        if out and out[-1][1] == r:
            out[-1][0].append(i)
        else:
            out.append(([i], r))
    return out


def sym_pair(charges, i, j) -> Symbol:
    rows = [()] * len(charges)
    rows[i - 1] = (1,)
    rows[j - 1] = (1,)
    return Symbol(tuple(charges), tuple(rows))


def sym_one(charges, i) -> Symbol:
    rows = [()] * len(charges)
    rows[i - 1] = (2,)
    return Symbol(tuple(charges), tuple(rows))


def sym_prime(charges, i) -> Symbol:
    rows = [()] * len(charges)
    rows[i - 1] = (1, 1)
    return Symbol(tuple(charges), tuple(rows))


def height2_monomials_at_one(charges) -> dict[Symbol, dict[Symbol, int]]:
    """Expected q = 1 expansion of every height-2 intermediate monomial.

    Keys are the standard symbols of height 2; each value maps symbols to the
    integer coefficient of the corresponding monomial vector at q = 1.  At
    height 2 the canonical basis equals the intermediate basis, so the same
    table is the expected canonical basis at q = 1.
    """
    blocks = blocks_of(tuple(charges))
    p = len(blocks)
    expected: dict[Symbol, dict[Symbol, int]] = {}

    for k in range(p):
        rows_k, v_k = blocks[k]
        last_k = rows_k[-1]
        for l in range(k + 1, p):
            rows_l, v_l = blocks[l]
            terms: dict[Symbol, int] = {}
            for i in rows_k:
                for j in rows_l:
                    terms[sym_pair(charges, i, j)] = 1
            if v_k == v_l + 1:
                for i in rows_k:
                    terms[sym_prime(charges, i)] = 1
            expected[sym_pair(charges, last_k, rows_l[-1])] = terms

        if len(rows_k) >= 2:
            terms = {}
            for a, i in enumerate(rows_k):
                for j in rows_k[a + 1 :]:
                    terms[sym_pair(charges, i, j)] = 1
            expected[sym_pair(charges, rows_k[-2], last_k)] = terms

        terms = {sym_one(charges, i): 1 for i in rows_k}
        if k >= 1 and blocks[k - 1][1] == v_k + 1:
            for j in blocks[k - 1][0]:
                for i in rows_k:
                    terms[sym_pair(charges, j, i)] = 1
        expected[sym_one(charges, last_k)] = terms

        if k == p - 1 or v_k - blocks[k + 1][1] >= 2:
            expected[sym_prime(charges, last_k)] = {
                sym_prime(charges, i): 1 for i in rows_k
            }

    return expected


def height2_characters(charges) -> dict[Symbol, CharacterSum]:
    """Expected constructible characters at n = 2, from the closed forms."""
    from wreathcells import dpartition_from_symbol

    out = {}
    for sigma, terms in height2_monomials_at_one(charges).items():
        counts = {}
        for sym, coeff in terms.items():
            counts[dpartition_from_symbol(sym)] = coeff
        out[sigma] = CharacterSum.from_counts(counts)
    return out
