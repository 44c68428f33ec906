"""Jucys-Murphy spectra of G(d,1,n) and the cells they cut out.

The commuting Jucys-Murphy elements act diagonally on the standard-tableau
basis; the element J_p acts on a tableau line through the box holding p by
d * (ksharp(c) - c0 * content), with c the box's component.  Grouping tableaux
by their full spectrum yields the JM cells.  These equal the Calogero-Moser
cells when the parameters are generic and are unions of them otherwise, which
callers should surface when reporting.

A spectrum is read along a path in the branching graph of d-partitions: the
edge adding a box to a shape carries that box's eigenvalue.  Spectrum prefixes
that reach the same shapes equally often grow alike, so the cells are computed
on a graph of these merged states, without listing the tableaux one by one.
A cell's character is read off its final state, and its multiplicity off the
number of paths into that state (see ``jm_cellular_characters``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .combinatorics import (
    BoxCoord,
    CharacterSum,
    DPartition,
    Partition,
    addable_boxes,
    content,
    enumerate_dpartitions,
)

# Not called here, but perfbench/tracing.py wraps the name in this module, so
# it stays imported.
from .combinatorics import standard_tableaux  # noqa: F401


@dataclass(frozen=True)
class CMParams:
    """Reflection parameters (c0; k_0..k_{d-1}), exact rationals, k read mod d."""

    d: int
    c0: Fraction
    k: tuple[Fraction, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if len(self.k) != self.d:
            raise ValueError(f"need exactly {self.d} values k_0..k_{self.d - 1}")

    def ksharp(self, i: int) -> Fraction:
        """ksharp(i) = k_{(1-i) mod d} for i in 1..d."""
        return self.k[(1 - i) % self.d]

    @classmethod
    def from_ksharp(cls, d: int, c0, ksharp) -> "CMParams":
        c0 = Fraction(c0)
        ksharp = [Fraction(x) for x in ksharp]
        if len(ksharp) != d:
            raise ValueError(f"need exactly {d} ksharp values")
        k = [Fraction(0)] * d
        for i in range(1, d + 1):
            k[(1 - i) % d] = ksharp[i - 1]
        return cls(d, c0, tuple(k))

    def ksharp_vector(self) -> tuple[Fraction, ...]:
        return tuple(self.ksharp(i) for i in range(1, self.d + 1))

    def scaled(self, factor) -> "CMParams":
        factor = Fraction(factor)
        return CMParams(self.d, self.c0 * factor, tuple(x * factor for x in self.k))


def jm_eigenvalue(params: CMParams, box: BoxCoord) -> Fraction:
    """Eigenvalue of J_p on a tableau line whose box holding p is this box.

    It is d * (ksharp(c) - c0 * content), with c the box's component.
    """
    if not 1 <= box.comp <= params.d:
        raise ValueError(f"component {box.comp} out of range 1..{params.d}")
    return params.d * (params.ksharp(box.comp) - params.c0 * content(box))


def tableau_spectrum(
    params: CMParams, boxes: tuple[BoxCoord, ...]
) -> tuple[Fraction, ...]:
    """JM eigenvalues of a sequence of boxes, in order.

    The boxes of a standard tableau give its spectrum (J_1, ..., J_n).
    """
    return tuple(jm_eigenvalue(params, box) for box in boxes)


def euler_value(params: CMParams, dp: DPartition) -> Fraction:
    """Scalar action of the Euler element on the irreducible labelled by dp."""
    if dp.d != params.d:
        raise ValueError("d-partition and parameters disagree on d")
    comp_sizes = sum(
        params.ksharp(c) * sum(dp.components[c - 1]) for c in range(1, dp.d + 1)
    )
    contents = sum(content(box) for box in dp.boxes())
    return params.d * comp_sizes - params.d * params.c0 * contents


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    witness: tuple[int, int, int] | None = None


def is_generic(params: CMParams, n: int) -> GenericityReport:
    """Check c0 != 0 and (k_p - k_q) != c0*j for all p != q and |j| < n.

    The witness (p, q, j) uses the storage indices 0..d-1 of the k vector.
    """
    if params.c0 == 0:
        return GenericityReport(generic=False)
    for p in range(params.d):
        for qi in range(params.d):
            if p == qi:
                continue
            for j in range(-(n - 1), n):
                if params.k[p] - params.k[qi] == params.c0 * j:
                    return GenericityReport(generic=False, witness=(p, qi, j))
    return GenericityReport(generic=True)


# A state is the sorted (shape id, tableaux) pairs that a spectrum prefix
# reaches; the empty prefix reaches the empty shape, id 0, once.
State = tuple[tuple[int, int], ...]
_ROOT: State = ((0, 1),)


@dataclass(frozen=True)
class CellDecomposition:
    """JM cells as a graph of merged states (see ``jm_cellular_characters``).

    ``children`` maps each state below size n to its moves, (eigenvalue, child
    state) in increasing eigenvalue order.  ``finals`` maps each state of size
    n to its character and the number of spectra that reach it.  ``paths``
    maps the states of each size k = 0..n to that number, and ``shapes`` lists
    the d-partitions of size at most n by the ids that states use.
    """

    children: dict[State, tuple[tuple[Fraction, State], ...]]
    finals: dict[State, tuple[CharacterSum, int]]
    report: GenericityReport
    paths: tuple[dict[State, int], ...]
    shapes: tuple[DPartition, ...]

    def character_counts(self, k: int | None = None) -> dict[CharacterSum, int]:
        """The distinct cell characters of size k (n by default) in canonical
        order, with multiplicities.

        Distinct states reach distinct shape counts, so their characters are
        distinct, and no cell is listed.  Shapes are numbered by size first,
        so the states of size k and their path counts are those of a build
        for k: this equals ``jm_cellular_characters(params, k).character_counts()``.
        """
        n = len(self.paths) - 1
        if k is None or k == n:
            pairs = self.finals.values()
        elif 0 <= k < n:
            pairs = [
                (_character(self.shapes, state), count)
                for state, count in self.paths[k].items()
            ]
        else:
            raise ValueError(f"size {k} is not in 0..{n}")
        return dict(sorted(pairs, key=lambda it: it[0].sort_key()))

    @cached_property
    def cells(self) -> tuple[tuple[tuple[Fraction, ...], CharacterSum], ...]:
        """Every cell as (spectrum, character), in increasing spectrum order."""
        return tuple(self.walk(_same, _same))

    def walk(self, label, render) -> Iterator[tuple[tuple, object]]:
        """Every cell as (labelled spectrum, rendered character), in order.

        ``label`` runs once per move, on its eigenvalue, and ``render`` once per
        final state, on its character, so a listing renders each distinct value
        once, not once per cell.  Each state's moves are linked to its
        children's moves once per edge.  Then each level extends the prefixes
        of the last in order, each by its state's moves in eigenvalue order, so
        every level stays sorted.  The last level is yielded cell by cell.
        """
        leaves = {state: render(cs) for state, (cs, _) in self.finals.items()}
        linked = {state: [] for state in self.children}
        for state, moves in self.children.items():
            linked[state].extend(
                (label(v), linked[child] if child in linked else leaves[child])
                for v, child in moves
            )
        depth, state = 0, _ROOT
        while state in self.children:
            depth, state = depth + 1, self.children[state][0][1]
        level = iter([((), linked[_ROOT] if depth else leaves[_ROOT])])
        for _ in range(depth):
            # a generator expression builds its outermost iterable at once, so
            # each level but the last is listed here
            level = (
                (prefix + (text,), child)
                for prefix, moves in list(level)
                for text, child in moves
            )
        return level

    def to_json_obj(self):
        # each eigenvalue is rendered once per move and each character once;
        # the cells share the strings and dicts
        return {
            "cells": [
                {"spectrum": list(spec), "character": character}
                for spec, character in self.walk(str, CharacterSum.to_json_obj)
            ],
            "generic": self.report.generic,
            "witness": list(self.report.witness) if self.report.witness else None,
        }


def _same(value):
    return value


def jm_cellular_characters(params: CMParams, n: int) -> CellDecomposition:
    """JM cells at size n: the standard tableaux grouped by their spectra.

    A tableau is a path in the branching graph that adds one box per step, and
    the edge adding a box carries its eigenvalue, computed once per shape from
    its addable boxes.  A spectrum prefix reaches some shapes, each by some
    number of tableaux, and prefixes that reach the same counts, one state,
    grow alike.  So the states are grown level by level: each distinct state
    is expanded once, its moves grouped by eigenvalue into child states, and
    the number of prefixes reaching each state is counted alongside.  A state
    of size n is the character of as many cells as prefixes reach it.  The
    counts of every level are kept, so one build serves each size up to n
    (``CellDecomposition.character_counts``).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    shapes = [
        dp for size in range(n + 1) for dp in enumerate_dpartitions(params.d, size)
    ]
    shape_id = {dp.components: i for i, dp in enumerate(shapes)}
    # (eigenvalue, child shape id) per addable box of each shape below n
    moves = []
    for dp in shapes:
        if dp.size < n:
            boxes = addable_boxes(dp)
            spectrum = tableau_spectrum(params, boxes)
            moves.append(
                [
                    (v, shape_id[_grown(dp.components, box)])
                    for v, box in zip(spectrum, boxes)
                ]
            )

    children: dict[State, tuple[tuple[Fraction, State], ...]] = {}
    paths = {_ROOT: 1}
    levels = [paths]
    for _ in range(n):
        next_paths: dict[State, int] = {}
        for state, count in paths.items():
            grouped: dict[Fraction, dict[int, int]] = {}
            for shape, tableaux in state:
                for v, child in moves[shape]:
                    reached = grouped.setdefault(v, {})
                    reached[child] = reached.get(child, 0) + tableaux
            children[state] = tuple(
                (v, tuple(sorted(grouped[v].items()))) for v in sorted(grouped)
            )
            for _, child in children[state]:
                next_paths[child] = next_paths.get(child, 0) + count
        paths = next_paths
        levels.append(paths)
    finals = {
        state: (_character(shapes, state), count) for state, count in paths.items()
    }
    return CellDecomposition(
        children, finals, is_generic(params, n), tuple(levels), tuple(shapes)
    )


def _character(shapes, state: State) -> CharacterSum:
    """The character of a state: its shapes, each as often as it is reached."""
    return CharacterSum.from_counts({shapes[s]: m for s, m in state})


def _grown(components: tuple[Partition, ...], box: BoxCoord) -> tuple[Partition, ...]:
    """The components with an addable box added: its row becomes box.col long."""
    row, comp = box.row, components[box.comp - 1]
    grown = comp[: row - 1] + (box.col,) + comp[row:]
    return components[: box.comp - 1] + (grown,) + components[box.comp :]
