"""Shared independent oracles for the test suite.

`CharacterSum` is the oracle character type: a validated, sorted combination
of d-partitions, each the tuple of its components, against which the
library's one character type, the ``IdCounts`` of shape ids, is checked.  It
raises `MalformedCharacter` for a multiplicity that is not positive, mixed
(d, n) or entries not strictly sorted by `components_sort_key`.
`rendered_cells` renders the ids of `CellDecomposition.cells`, given d, as
`CharacterSum`s.  `addable_boxes` lists the boxes addable to a d-partition,
for the oracles that grow shapes box by box.

The height-2 closed forms reconstruct, directly from the block structure of a
charge vector, the standard symbols, the q = 1 content of every intermediate
monomial, and the resulting constructible characters.  They are written from
the combinatorial description alone and never call the production pipeline,
so they can serve as an oracle for it.

`divided_power_oracle` is the oracle for the closed-form divided powers of
`wreathcells.fock.divided_power_f`: it applies `f_action_oracle` k times and
divides every coefficient by [k]! exactly.  `f_action_oracle` moves one bead
per term on the `row_*` helpers and sums fresh `LaurentPoly` products, so the
oracle shares no coefficient and no table with `wreathcells.fock._lower`.
`replayed_monomial` is the oracle for the monomials: it applies the whole
peeling word to the highest-weight vector, one oracle divided power per
factor.  `canonical_basis_from_monomials` is the oracle for
`wreathcells.fock.canonical_basis`, which starts each vector from F_m^(k)
applied to the vector of the peel parent: it starts each vector from its
replayed monomial instead, in the same order with the same corrections.

`render_basis` is the oracle for the `canonical-basis` listing, which makes
each distinct row's text and sort key once: it renders every term on its own,
with `FockVector.support`, `Symbol.text` and `LaurentPoly.text`.

`jm_cells_json_obj` is the oracle for the `jm-cells --format json` listing,
which writes each cell as one join of fragments encoded once per distinct
eigenvalue and character, from its ids: it builds the whole tree, a dict per
cell of `rendered_cells`, each character a `CharacterSum`.
`CharacterSumVerdict.to_json_obj` is, in the same way, the oracle for the
`check --format json` document, whose lists reuse the text of each distinct
character: it builds the whole tree, multisets copy by copy.

The `row_*` helpers are the oracle for the one-pass bead mechanics of
`wreathcells.fock`: each decides bead membership directly with `row_contains`.

`crystal_closure` is the oracle for `wreathcells.fock.enumerate_standard_symbols`,
which generates each height's rows under the column rule: it closes the
highest-weight symbol under the signature-rule operator `crystal_f`, breadth
first, trying at each symbol the nodes `candidate_nodes` names.
`filtered_standard_symbols` is a second oracle for it, which reaches heights
the closure is too slow for: it tests the column rule on every d-partition of
each height.

`peel_step_by_weights` is the oracle for `wreathcells.fock._peel_step`, which
reads the peel off each row's last part: it takes every row's K_m-weight with
`fock._weights` and moves the bead of each raiseable row with `fock._row_move`.

`direct_spectrum` is the oracle for
`wreathcells.jucys_murphy.tableau_spectrum`: it evaluates
d * (ksharp(c) - c0 * content) inline for every box of a tableau.

`recursive_standard_tableaux` and `recursive_tableau_count` are the oracles
for `wreathcells.standard_tableaux` (an iterative peel) and
`wreathcells.tableau_count` (the hook length formula): both recurse on the
branching rule, removing the last box in every possible way.

`check_by_character_sums` is the oracle for the id-tuple verdict of
`wreathcells.check_conjecture_sizes`: it carries every character as a
validated `CharacterSum`, built per JM state and per basis vector with
`CharacterSum.from_counts`, and sorts each side by `CharacterSum.sort_key`;
its `CharacterSumVerdict` stores those sums and derives every field from them.
`CharacterSumVerdict.text_listing` is the oracle for text `check`, which
renders each character from its ids, each shape's text made once: it renders
every character with `CharacterSum.text`.  `rendered_verdict` renders the ids
of a `ConjectureVerdict` into the same shape, so that tests can read its
characters as `CharacterSum`s; `rendered_n2_family` and `rendered_n2` render
the ids of the n = 2 closed forms in the same way.

`jm_cells_by_tableaux` and `jm_cells_by_trie` are the oracles for the graph
of merged states behind `wreathcells.jm_cellular_characters`.  The first
walks every standard tableau of every shape and groups the tableaux by their
spectra, the definition of the JM cells.  The second grows one trie node per
spectrum prefix, with the shapes its tableaux reach and how many reach each,
and never merges two prefixes.

`jm_moves_by_dpartitions` is the oracle for the move table of
`wreathcells.jm_cellular_characters`, which finds each addable box on the
keys of `shape_index`: it builds the table from the validated listing
`enumerate_dpartitions`, with `addable_boxes` and `grown`, and returns the
build's values, moves and path counts.

The remaining oracles are small routines that the package itself never runs:

- `e_action`, the raising operator E_m built on the `row_*` helpers, checks
  `wreathcells.fock.f_action` through the quantum-group relations [E_i, F_j].
- `weight`, a symbol's sl_infinity weight, checks that `f_action` is
  homogeneous.
- `beta`, a symbol's bead values, checks the column rule of
  `enumerate_standard_symbols` and the bead layout of `wreathcells.Symbol`.
- `symbol_from_dpartition`, which attaches charges to a d-partition (a
  symbol's rows are its d-partition), checks `lm_constructible`, which reads
  each term's shape among `enumerate_dpartitions`.
- `euler_value`, the Euler element's scalar on an irreducible summed over
  `boxes`, checks `tableau_spectrum`: a spectrum telescopes to it.
- `scaled`, the parameters times a rational, checks that
  `jm_cellular_characters`, `jm_eigenvalue` and `check_conjecture` scale
  covariantly.
- `q_integer` and `q_factorial` divide in `divided_power_oracle`, the oracle
  for `divided_power_f`.
- `bar`, the involution q -> q^-1, checks `bar_symmetric_head`.
- `in_q_zq`, whether a polynomial lies in qZ[q], checks the lattice condition
  on canonical basis vectors and `bar_symmetric_head`.
- `parse_laurent`, the inverse of `LaurentPoly.text`, checks that text form
  and writes expected vectors in the Fock-space tests.

"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import wreathcells.jucys_murphy as jm
from wreathcells import (
    BoxCoord,
    CellDecomposition,
    CMParams,
    FockVector,
    GenericityReport,
    LaurentPoly,
    MalformedCharacter,
    StandardTableau,
    Symbol,
    bar_symmetric_head,
    content,
    enumerate_dpartitions,
    enumerate_standard_symbols,
    highest_weight_symbol,
    is_generic,
    jm_eigenvalue,
    q,
    removable_boxes,
    standard_tableaux,
    tableau_spectrum,
)
from wreathcells.combinatorics import (
    IdCounts,
    components_sort_key,
    components_text,
    dpartition_components,
    remove_box,
    shape_index,
)
from wreathcells.conjecture import r_from_params
from wreathcells.fock import (
    _row_move,
    _weights,
    canonical_basis,
    crystal_f,
    lm_constructible,
    lt_monomial,
    symbol_sort_key,
)
from wreathcells.gd12 import cm_cells_n2, cm_cells_n2_family
from wreathcells.jucys_murphy import jm_cellular_characters
from wreathcells.laurent import one


@dataclass(frozen=True)
class CharacterSum:
    """A formal nonnegative-integer combination of irreducible characters.

    Keys are d-partitions of one fixed n; entries are sorted by the canonical
    d-partition order (`components_sort_key`) and never carry zero
    multiplicities, so equal sums compare and hash equal.
    """

    entries: tuple[tuple[tuple[tuple[int, ...], ...], int], ...]

    def __post_init__(self):
        seen_dn = None
        prev_key = None
        for dp, mult in self.entries:
            if mult <= 0:
                raise MalformedCharacter("multiplicities must be positive")
            dn = (len(dp), sum(map(sum, dp)))
            if seen_dn is None:
                seen_dn = dn
            elif dn != seen_dn:
                raise MalformedCharacter("mixed (d, n) in one character sum")
            key = components_sort_key(dp)
            if prev_key is not None and key <= prev_key:
                raise MalformedCharacter("entries must be strictly sorted")
            prev_key = key

    @classmethod
    def from_counts(cls, counts: dict) -> "CharacterSum":
        items = [(dp, m) for dp, m in counts.items() if m]
        items.sort(key=lambda it: components_sort_key(it[0]))
        return cls(tuple(items))

    @classmethod
    def from_ids(cls, shapes, ids: IdCounts) -> "CharacterSum":
        """The character sum of (index in ``shapes``, multiplicity) pairs.

        ``shapes`` lists d-partitions in ``enumerate_dpartitions`` order and
        ``ids`` is sorted by index, so nothing is sorted here.
        """
        return cls(tuple((shapes[i], m) for i, m in ids))

    def counts(self) -> dict:
        return dict(self.entries)

    def multiplicity(self, dp) -> int:
        return dict(self.entries).get(dp, 0)

    def support(self) -> tuple:
        return tuple(dp for dp, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def text(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            components_text(dp) if m == 1 else f"{m}*{components_text(dp)}"
            for dp, m in self.entries
        )

    def to_json_obj(self) -> dict[str, int]:
        return {components_text(dp): m for dp, m in self.entries}

    def sort_key(self):
        return tuple((components_sort_key(dp), m) for dp, m in self.entries)

    def __repr__(self):
        return f"CharacterSum({self.text()})"


def addable_boxes(dp) -> tuple[BoxCoord, ...]:
    """Boxes whose addition yields a valid Young diagram, ordered by (comp, row)."""
    out = []
    for ci, comp in enumerate(dp, start=1):
        for a in range(1, len(comp) + 2):
            row_len = comp[a - 1] if a <= len(comp) else 0
            above = comp[a - 2] if a >= 2 else None
            if above is None or above > row_len:
                out.append(BoxCoord(a, row_len + 1, ci))
    return tuple(out)


def rendered_cells(
    dec: CellDecomposition, d: int
) -> tuple[tuple[tuple[Fraction, ...], CharacterSum], ...]:
    """``dec.cells``, each character's ids rendered as a `CharacterSum` of
    d-partitions."""
    shapes = enumerate_dpartitions(d, len(dec.paths) - 1)
    return tuple((spec, CharacterSum.from_ids(shapes, ids)) for spec, ids in dec.cells)


class CharacterSumVerdict(NamedTuple):
    """A verdict whose two sides are `CharacterSum`s, with their counts."""

    mode: str
    n: int
    charges: tuple[int, ...]
    cm_counts: dict[CharacterSum, int]
    lm_counts: dict[CharacterSum, int]

    @property
    def equal(self) -> bool:
        return self.cm_counts.keys() == self.lm_counts.keys()

    @property
    def cm_only(self) -> tuple[CharacterSum, ...]:
        return tuple(cs for cs in self.cm_counts if cs not in self.lm_counts)

    @property
    def lm_only(self) -> tuple[CharacterSum, ...]:
        return tuple(cs for cs in self.lm_counts if cs not in self.cm_counts)

    @property
    def cm_multiset(self) -> tuple[CharacterSum, ...]:
        return tuple(cs for cs, m in self.cm_counts.items() for _ in range(m))

    @property
    def lm_multiset(self) -> tuple[CharacterSum, ...]:
        return tuple(cs for cs, m in self.lm_counts.items() for _ in range(m))

    @property
    def note(self) -> str:
        if self.mode == "jm-upper-bound" and not self.equal:
            return "inconclusive (JM cells may merge CM cells)"
        return ""

    def to_json_obj(self):
        def charlist(chars):
            return [cs.to_json_obj() for cs in chars]

        return {
            "mode": self.mode,
            "n": self.n,
            "charges": list(self.charges),
            "equal": self.equal,
            "cm_set": charlist(self.cm_counts),
            "lm_set": charlist(self.lm_counts),
            "diff": {
                "cm_only": charlist(self.cm_only),
                "lm_only": charlist(self.lm_only),
            },
            "cm_multiset": charlist(self.cm_multiset),
            "lm_multiset": charlist(self.lm_multiset),
            "note": self.note,
        }

    def text_listing(self) -> str:
        """The output of text `check`, each character rendered where it stands."""
        lines = [
            f"mode: {self.mode}",
            f"equal: {self.equal}" + (f"  ({self.note})" if self.note else ""),
            "cm cells:",
            *(f"  {cs.text()}" for cs in self.cm_counts),
            "lm cells:",
            *(f"  {cs.text()}" for cs in self.lm_counts),
        ]
        if not self.equal:
            lines.append("cm only: " + "; ".join(cs.text() for cs in self.cm_only))
            lines.append("lm only: " + "; ".join(cs.text() for cs in self.lm_only))
        return "".join(line + "\n" for line in lines)


def rendered_verdict(verdict) -> SimpleNamespace:
    """A `ConjectureVerdict` in the shape of a `CharacterSumVerdict`: its ids
    rendered as `CharacterSum`s, with its own equal, differences and note."""
    shapes = enumerate_dpartitions(verdict.d, verdict.n)

    def render(ids):
        return tuple(CharacterSum.from_ids(shapes, each) for each in ids)

    return SimpleNamespace(
        mode=verdict.mode,
        n=verdict.n,
        charges=verdict.charges,
        equal=verdict.equal,
        cm_counts=dict(zip(render(verdict.cm_ids), verdict.cm_ids.values())),
        lm_counts=dict(zip(render(verdict.lm_ids), verdict.lm_ids.values())),
        cm_only=render(verdict.cm_only_ids),
        lm_only=render(verdict.lm_only_ids),
        note=verdict.note,
    )


def rendered_lm(charges, n: int) -> dict[Symbol, CharacterSum]:
    """`lm_constructible` at height n, its ids rendered as `CharacterSum`s."""
    shapes = enumerate_dpartitions(len(charges), n)
    return {
        sym: CharacterSum.from_ids(shapes, ids)
        for sym, ids in lm_constructible(charges, (n,))[n].items()
    }


def rendered_n2_family(params: CMParams) -> list[tuple[str, CharacterSum]]:
    """`cm_cells_n2_family`, its ids rendered as `CharacterSum`s."""
    shapes = enumerate_dpartitions(params.d, 2)
    return [
        (label, CharacterSum.from_ids(shapes, ids))
        for label, ids in cm_cells_n2_family(params)
    ]


def rendered_n2(params: CMParams) -> frozenset[CharacterSum]:
    """`cm_cells_n2`, its ids rendered as `CharacterSum`s."""
    shapes = enumerate_dpartitions(params.d, 2)
    return frozenset(CharacterSum.from_ids(shapes, ids) for ids in cm_cells_n2(params))


def character_counts(chars) -> dict[CharacterSum, int]:
    """The distinct character sums, sorted by `CharacterSum.sort_key`, each
    with the number of times it occurs."""
    counts = Counter(chars)
    return {cs: counts[cs] for cs in sorted(counts, key=CharacterSum.sort_key)}


def check_by_character_sums(params: CMParams, sizes) -> tuple[CharacterSumVerdict, ...]:
    """`check_conjecture_sizes` with every character a `CharacterSum`."""
    charges = r_from_params(params)
    basis = canonical_basis(charges, max(sizes))
    jm = jm_cellular_characters(params, max(sizes))
    verdicts = []
    for n in sizes:
        lm_counts = character_counts(
            CharacterSum.from_counts(
                {s.rows: c.eval_at_one() for s, c in vec.terms.items()}
            )
            for sym, vec in basis.items()
            if sym.height == n
        )
        if n == 2:
            mode = "exact-n2"
            cm_counts = character_counts(cs for _, cs in rendered_n2_family(params))
        else:
            mode = "generic" if is_generic(params, n).generic else "jm-upper-bound"
            shapes = enumerate_dpartitions(params.d, n)
            pairs = [
                (CharacterSum.from_counts({shapes[s]: m for s, m in state}), count)
                for state, count in jm.paths[n].items()
            ]
            cm_counts = dict(sorted(pairs, key=lambda it: it[0].sort_key()))
        verdicts.append(CharacterSumVerdict(mode, n, charges, cm_counts, lm_counts))
    return tuple(verdicts)


def direct_spectrum(params: CMParams, tab: StandardTableau) -> tuple[Fraction, ...]:
    """JM spectrum of a tableau, computed box by box inline."""
    return tuple(
        params.d * (params.ksharp(box.comp) - params.c0 * (box.col - box.row))
        for box in tab.boxes
    )


class JMCells(NamedTuple):
    """Every JM cell as (spectrum, character), in increasing spectrum order."""

    cells: tuple[tuple[tuple[Fraction, ...], CharacterSum], ...]
    report: GenericityReport


def jm_cells_by_tableaux(params: CMParams, n: int) -> JMCells:
    """JM cells from grouping every standard tableau by its spectrum."""
    groups: dict[tuple[Fraction, ...], dict] = {}
    for shape in enumerate_dpartitions(params.d, n):
        for tab in standard_tableaux(shape):
            counts = groups.setdefault(tableau_spectrum(params, tab.boxes), {})
            counts[shape] = counts.get(shape, 0) + 1
    cells = tuple(
        (spec, CharacterSum.from_counts(groups[spec])) for spec in sorted(groups)
    )
    return JMCells(cells, is_generic(params, n))


def jm_cells_by_trie(params: CMParams, n: int) -> JMCells:
    """JM cells from a trie of spectrum prefixes, one node per prefix.

    A node is (prefix, {shape: tableaux}); its children, one per eigenvalue of
    the boxes addable to its shapes, come in increasing eigenvalue order, so
    each level is sorted.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    level = [((), {((),) * params.d: 1})]
    for _ in range(n):
        next_level = []
        for prefix, counts in level:
            children: dict[Fraction, tuple] = {}
            for shape, count in counts.items():
                for box in addable_boxes(shape):
                    v = jm_eigenvalue(params, box)
                    reached = children.setdefault(v, (prefix + (v,), {}))[1]
                    child = grown(shape, box)
                    reached[child] = reached.get(child, 0) + count
            next_level.extend(children[v] for v in sorted(children))
        level = next_level
    cells = tuple(
        (prefix, CharacterSum.from_counts(counts)) for prefix, counts in level
    )
    return JMCells(cells, is_generic(params, n))


def jm_cells_json_obj(dec: CellDecomposition, params: CMParams) -> dict:
    """The object that `jm-cells --format json` writes, a dict per cell of
    ``dec.cells``, each character a `CharacterSum`, and the report of
    `is_generic` at the parameters of ``dec`` and its size."""
    n = len(dec.paths) - 1
    report = is_generic(params, n)
    return {
        "cells": [
            {"spectrum": [str(x) for x in spec], "character": cs.to_json_obj()}
            for spec, cs in rendered_cells(dec, params.d)
        ],
        "generic": report.generic,
        "witness": list(report.witness) if report.witness else None,
    }


def jm_moves_by_dpartitions(params: CMParams, n: int):
    """(values, moves, paths) of `jm_cellular_characters`, its move table
    built from every d-partition that `enumerate_dpartitions` lists below n
    and its boxes."""
    firsts: dict[tuple[int, int], BoxCoord] = {}
    keyed_moves = []
    for size in range(n):
        child_id = shape_index(params.d, size + 1)
        rows = []
        for dp in enumerate_dpartitions(params.d, size):
            row = []
            for box in addable_boxes(dp):
                key = (box.comp, content(box))
                firsts.setdefault(key, box)
                row.append((key, child_id[grown(dp, box)]))
            rows.append(row)
        keyed_moves.append(rows)
    spectrum = tableau_spectrum(params, tuple(firsts.values()))
    values = tuple(sorted(set(spectrum)))
    key_rank = {key: values.index(v) for key, v in zip(firsts, spectrum)}
    moves = [
        [[(key_rank[key], child) for key, child in row] for row in rows]
        for rows in keyed_moves
    ]
    paths = {((0, 1),): 1}
    levels = [paths]
    for size_moves in moves:
        next_paths: dict = {}
        for state, count in paths.items():
            for _, child in jm._step(state, size_moves):
                next_paths[child] = next_paths.get(child, 0) + count
        paths = next_paths
        levels.append(paths)
    return values, moves, tuple(levels)


def grown(shape, box: BoxCoord):
    """The shape with an addable box added."""
    c = box.comp - 1
    comp = shape[c]
    row = comp[: box.row - 1] + (box.col,) + comp[box.row :]
    return shape[:c] + (row,) + shape[c + 1 :]


@lru_cache(maxsize=None)
def recursive_standard_tableaux(shape) -> tuple[StandardTableau, ...]:
    """Standard tableaux by the branching recursion on the last box."""
    if not any(shape):
        return (StandardTableau(shape, ()),)
    out = []
    for box in removable_boxes(shape):
        for sub in recursive_standard_tableaux(remove_box(shape, box)):
            out.append(StandardTableau(shape, sub.boxes + (box,)))
    return tuple(out)


@lru_cache(maxsize=None)
def recursive_tableau_count(shape) -> int:
    """Number of standard tableaux by the branching recursion."""
    if not any(shape):
        return 1
    return sum(
        recursive_tableau_count(remove_box(shape, box))
        for box in removable_boxes(shape)
    )


def divided_power_oracle(m: int, k: int, vec: FockVector) -> FockVector:
    """F_m^k vec / [k]!: k applications of F_m, then exact division."""
    for _ in range(k):
        vec = f_action_oracle(m, vec)
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
            if s != sym and s in position and not in_q_zq(c)
        ]:
            target = order[max(violators)]
            if position[target] >= position[sym]:
                raise RuntimeError(f"{target!r} is not built before {sym!r}")
            gamma = bar_symmetric_head(cur.coefficient(target))
            cur = cur - basis[target].scale(gamma)
        basis[sym] = cur
    return basis


def render_basis(basis: dict[Symbol, FockVector]) -> list[dict]:
    """The `basis` entry of `canonical-basis --format json`, term by term."""
    ordered = sorted(basis, key=lambda s: (s.height, symbol_sort_key(s)))
    return [
        {
            "symbol": sym.text(),
            "terms": [
                {"symbol": s.text(), "coeff": basis[sym].coefficient(s).text()}
                for s in basis[sym].support()
            ],
        }
        for sym in ordered
    ]


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


def crystal_closure(charges: tuple[int, ...], n: int) -> tuple[frozenset[Symbol], ...]:
    """The crystal component of the highest-weight symbol, by height 0..n.

    Breadth first: height h + 1 is every non-None crystal_f(m, sym) for sym
    of height h and m a node where some row of sym is lowerable.
    """
    layers = [frozenset([highest_weight_symbol(charges)])]
    for _ in range(n):
        layers.append(
            frozenset(
                child
                for sym in layers[-1]
                for m in candidate_nodes(sym)
                if (child := crystal_f(m, sym)) is not None
            )
        )
    return tuple(layers)


def filtered_standard_symbols(
    charges: tuple[int, ...], n: int
) -> tuple[frozenset[Symbol], ...]:
    """The standard symbols by height 0..n, filtered from all d-partitions.

    Height h keeps the d-partitions of h in which consecutive rows, with gap
    g = r_i - r_{i+1}, have parts_i[j + g] <= parts_{i+1}[j] for every j >= 0,
    a missing part read as 0.
    """
    charges = highest_weight_symbol(charges).charges
    gaps = tuple(a - b for a, b in zip(charges, charges[1:]))
    return tuple(
        frozenset(
            Symbol(charges, rows)
            for rows in dpartition_components(len(charges), h)
            if all(
                len(up) <= len(low) + g and all(p <= q for p, q in zip(up[g:], low))
                for up, low, g in zip(rows, rows[1:], gaps)
            )
        )
        for h in range(n + 1)
    )


def peel_step_by_weights(sym: Symbol):
    """((node, multiplicity), parent) of one peel step, or None at the highest
    weight: every row raiseable at the node below the smallest displaced bead
    value moves that bead down."""
    lows = [
        r - len(parts) + 1 + parts[-1]
        for r, parts in zip(sym.charges, sym.rows)
        if parts
    ]
    if not lows:
        return None
    m = min(lows) - 1
    eps = _weights(sym, m)
    rows = tuple(
        _row_move(r, parts, m + 1, -1) if e == -1 else parts
        for r, parts, e in zip(sym.charges, sym.rows, eps)
    )
    return (m, eps.count(-1)), Symbol(sym.charges, rows)


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
    out = {}
    for sigma, terms in height2_monomials_at_one(charges).items():
        counts = {}
        for sym, coeff in terms.items():
            counts[sym.rows] = coeff
        out[sigma] = CharacterSum.from_counts(counts)
    return out


def f_action_oracle(m: int, vec: FockVector) -> FockVector:
    """Chevalley lowering operator F_m, one row move at a time.

    Delta(F) = F (x) K + 1 (x) F, so the term that lowers row j is weighted
    by q to the sum of the K_m-weights of the rows after j.
    """
    out: dict[Symbol, LaurentPoly] = {}
    for sym, coeff in vec.terms.items():
        for j, (r, parts) in enumerate(zip(sym.charges, sym.rows)):
            if row_eps(r, parts, m) == 1:
                later = zip(sym.charges[j + 1 :], sym.rows[j + 1 :])
                after = sum(row_eps(*row, m) for row in later)
                rows = sym.rows[:j] + (row_move_up(r, parts, m),) + sym.rows[j + 1 :]
                target = Symbol(sym.charges, rows)
                out[target] = out.get(target, LaurentPoly()) + coeff * q(after)
    return FockVector(out)


def e_action(m: int, vec: FockVector) -> FockVector:
    """Chevalley raising operator E_m, mirror of f_action on the earlier rows.

    Delta(E) = E (x) 1 + K^-1 (x) E, so the term that raises row j is weighted
    by q to minus the sum of the K_m-weights of the rows before j.
    """
    out: dict[Symbol, LaurentPoly] = {}
    for sym, coeff in vec.terms.items():
        above = 0
        for j, (r, parts) in enumerate(zip(sym.charges, sym.rows)):
            e = row_eps(r, parts, m)
            if e == -1:
                rows = sym.rows[:j] + (row_move_down(r, parts, m),) + sym.rows[j + 1 :]
                target = Symbol(sym.charges, rows)
                out[target] = out.get(target, LaurentPoly()) + coeff * q(-above)
            above += e
    return FockVector(out)


def weight(sym: Symbol) -> tuple[tuple[int, int], ...]:
    """Finite fingerprint of the sl_infinity weight.

    Maps each bead value v to (number of rows containing v) minus the same
    count for the highest-weight symbol; only nonzero differences are kept.
    """
    delta: dict[int, int] = {}
    for r, parts in zip(sym.charges, sym.rows):
        for j in range(1, len(parts) + 1):
            val = r - j + 1 + parts[j - 1]
            baseline = r - j + 1
            delta[val] = delta.get(val, 0) + 1
            delta[baseline] = delta.get(baseline, 0) - 1
    return tuple(sorted((v, c) for v, c in delta.items() if c))


def beta(sym: Symbol, i: int, k: int) -> int:
    """Bead value at position k of row i (i is 1-based, k <= r_i)."""
    if not 1 <= i <= sym.d:
        raise ValueError(f"no row {i} in a symbol with {sym.d} rows")
    r = sym.charges[i - 1]
    if k > r:
        raise ValueError(f"row {i} has no position {k} (charge {r})")
    parts = sym.rows[i - 1]
    j = r - k  # 0-based index into the displacement partition
    return k + (parts[j] if j < len(parts) else 0)


def symbol_from_dpartition(dp, charges: tuple[int, ...]) -> Symbol:
    """Attach charges to a d-partition of displacements."""
    return Symbol(tuple(charges), dp)


def boxes(dp) -> tuple[BoxCoord, ...]:
    """Every box of dp, component by component, row by row."""
    return tuple(
        BoxCoord(a, b, ci)
        for ci, comp in enumerate(dp, start=1)
        for a, row_len in enumerate(comp, start=1)
        for b in range(1, row_len + 1)
    )


def euler_value(params: CMParams, dp) -> Fraction:
    """Scalar action of the Euler element on the irreducible labelled by dp."""
    if len(dp) != params.d:
        raise ValueError("d-partition and parameters disagree on d")
    comp_sizes = sum(params.ksharp(c) * sum(comp) for c, comp in enumerate(dp, 1))
    contents = sum(content(box) for box in boxes(dp))
    return params.d * comp_sizes - params.d * params.c0 * contents


def scaled(params: CMParams, factor) -> CMParams:
    """The parameters c0 and k, all multiplied by factor."""
    factor = Fraction(factor)
    return CMParams(params.d, params.c0 * factor, tuple(x * factor for x in params.k))


def q_integer(m: int) -> LaurentPoly:
    """[m] = q^(m-1) + q^(m-3) + ... + q^(1-m)."""
    if m < 0:
        raise ValueError("q-integers are defined for m >= 0")
    return LaurentPoly({m - 1 - 2 * t: 1 for t in range(m)})


def q_factorial(m: int) -> LaurentPoly:
    """[m]! = [1][2]...[m]."""
    out = one()
    for k in range(2, m + 1):
        out = out * q_integer(k)
    return out


def bar(p: LaurentPoly) -> LaurentPoly:
    """The involution q -> q^-1 (negate every exponent)."""
    return LaurentPoly({-e: c for e, c in p.coeffs.items()})


def in_q_zq(p: LaurentPoly) -> bool:
    """True iff every exponent is >= 1, i.e. the polynomial lies in qZ[q]."""
    return all(e >= 1 for e in p.coeffs)


_TERM_RE = re.compile(r"^(\d*)(q(\^(-?\d+))?)?$")


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the canonical text form back into a polynomial."""
    s = text.strip().replace(" ", "")
    if s == "0":
        return LaurentPoly()
    terms = []
    start = 0
    for idx in range(1, len(s)):
        if s[idx] in "+-" and s[idx - 1] != "^":
            terms.append(s[start:idx])
            start = idx
    terms.append(s[start:])
    coeffs: dict[int, int] = {}
    for signed in terms:
        sign = -1 if signed.startswith("-") else 1
        body = signed.lstrip("+-")
        m = _TERM_RE.match(body)
        if not m or not body:
            raise ValueError(f"cannot parse Laurent term {signed!r}")
        mag = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            exp = 0
        elif m.group(4) is None:
            exp = 1
        else:
            exp = int(m.group(4))
        coeffs[exp] = coeffs.get(exp, 0) + sign * mag
    return LaurentPoly(coeffs)
