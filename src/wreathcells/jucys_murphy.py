"""Jucys-Murphy spectra of G(d,1,n) and the cells they cut out.

The commuting Jucys-Murphy elements act diagonally on the standard-tableau
basis; the element J_p acts on a tableau line through the box holding p by
d * (ksharp(c) - c0 * content), with c the box's component.  Grouping tableaux
by their full spectrum yields the JM cells.  These equal the Calogero-Moser
cells when the parameters are generic and are unions of them otherwise, which
callers should surface when reporting.

A spectrum is read along a path in the branching graph of d-partitions: the
edge adding a box to a shape carries that box's eigenvalue.  So the cells are
computed by growing spectrum prefixes box by box, without listing the tableaux
one by one (see ``jm_cellular_characters``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import (
    BoxCoord,
    CharacterSum,
    DPartition,
    add_box,
    addable_boxes,
    character_counts,
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
    c0_zero: bool = False
    witness: tuple[int, int, int] | None = None

    def to_json_obj(self):
        return {
            "generic": self.generic,
            "c0_zero": self.c0_zero,
            "witness": list(self.witness) if self.witness else None,
        }


def is_generic(params: CMParams, n: int) -> GenericityReport:
    """Check c0 != 0 and (k_p - k_q) != c0*j for all p != q and |j| < n.

    The witness (p, q, j) uses the storage indices 0..d-1 of the k vector.
    """
    if params.c0 == 0:
        return GenericityReport(generic=False, c0_zero=True)
    for p in range(params.d):
        for qi in range(params.d):
            if p == qi:
                continue
            for j in range(-(n - 1), n):
                if params.k[p] - params.k[qi] == params.c0 * j:
                    return GenericityReport(generic=False, witness=(p, qi, j))
    return GenericityReport(generic=True)


@dataclass(frozen=True)
class CellDecomposition:
    """JM cells: distinct spectra with their tableau-counting characters."""

    d: int
    n: int
    cells: tuple[tuple[tuple[Fraction, ...], CharacterSum], ...]
    report: GenericityReport

    def character_counts(self) -> dict[CharacterSum, int]:
        return character_counts(cs for _, cs in self.cells)

    def to_json_obj(self):
        return {
            "cells": [
                {
                    "spectrum": [str(x) for x in spec],
                    "character": cs.to_json_obj(),
                }
                for spec, cs in self.cells
            ],
            "generic": self.report.generic,
            "witness": self.report.to_json_obj()["witness"],
        }


def jm_cellular_characters(params: CMParams, n: int) -> CellDecomposition:
    """JM cells at size n: the standard tableaux grouped by their spectra.

    The cells come in increasing order of their spectra.  A tableau is a path
    in the branching graph that adds one box per step, so the spectra are
    grown as a trie, one level per box.  A node is a spectrum prefix with the
    shapes its tableaux reach and how many reach each; it has one child per
    eigenvalue of the boxes addable to those shapes.  The eigenvalues on the
    edges out of a shape are computed once, from its addable boxes, and a
    cell's spectrum is its node's prefix.  Cells reaching the same shapes
    equally often share one character.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    shapes = [
        dp for size in range(n + 1) for dp in enumerate_dpartitions(params.d, size)
    ]
    shape_id = {dp: i for i, dp in enumerate(shapes)}
    # (eigenvalue, child shape id) per addable box of each shape below n
    steps = []
    for dp in shapes:
        if dp.size < n:
            boxes = addable_boxes(dp)
            spectrum = tableau_spectrum(params, boxes)
            steps.append(
                [(v, shape_id[add_box(dp, box)]) for v, box in zip(spectrum, boxes)]
            )
    # int ranks in the order of the eigenvalues, so the walk hashes no Fraction
    values = sorted({v for step in steps for v, _ in step})
    rank = {value: i for i, value in enumerate(values)}
    moves = [[(rank[v], child) for v, child in step] for step in steps]

    # A node is (spectrum prefix, {shape id: tableaux}).  Children in rank
    # order keep each level sorted.
    level = [((), {0: 1})]
    for _ in range(n):
        next_level = []
        for prefix, counts in level:
            children: dict[int, tuple[tuple[Fraction, ...], dict[int, int]]] = {}
            for shape, count in counts.items():
                for r, child in moves[shape]:
                    node = children.get(r)
                    if node is None:
                        children[r] = node = (prefix + (values[r],), {})
                    reached = node[1]
                    reached[child] = reached.get(child, 0) + count
            next_level.extend(children[r] for r in sorted(children))
        level = next_level
    characters: dict[tuple[tuple[int, int], ...], CharacterSum] = {}
    cells = []
    for prefix, counts in level:
        key = tuple(sorted(counts.items()))
        character = characters.get(key)
        if character is None:
            character = characters[key] = CharacterSum.from_counts(
                {shapes[s]: m for s, m in key}
            )
        cells.append((prefix, character))
    return CellDecomposition(params.d, n, tuple(cells), is_generic(params, n))
