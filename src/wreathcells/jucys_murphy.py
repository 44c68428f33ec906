"""Jucys-Murphy spectra of G(d,1,n) and the cells they cut out.

The commuting Jucys-Murphy elements act diagonally on the standard-tableau
basis; the element J_p acts on a tableau line through the box holding p by
d * (ksharp(c) - c0 * content), with c the box's component.  Grouping tableaux
by their full spectrum yields the JM cells.  These equal the Calogero-Moser
cells when the parameters are generic and are unions of them otherwise, which
callers should surface when reporting.

A spectrum is read along a path in the branching graph of d-partitions: the
edge adding a box to a shape carries that box's eigenvalue.  An eigenvalue
depends only on the box's component and content, so a build computes each
distinct one once and the graph moves on its rank among them, an int.
Spectrum prefixes that reach the same shapes equally often grow alike, so the
cells are computed on a graph of these merged states, without listing the
tableaux one by one.  A cell's character is read off its final state, and
its multiplicity off the number of paths into that state (see
``jm_cellular_characters``).  A build keeps the path counts and a small move
table per size, not the graph's edges: one function (``_step``) expands a
state into its moves, for the build to count paths and for a walk to list
cells.  A shape's id is its index among the shapes of its size
(``shape_index``), so a final state is already the character as ``IdCounts``,
and characters are compared and rendered as int tuples.  The move table is
read off the shapes' component tuples, the keys of ``shape_index``: a
build grows them box by box, and ``CellDecomposition.cells`` lists each cell
with its character as the same ``IdCounts``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .combinatorics import BoxCoord, IdCounts, content, shape_index

# Neither is called here, but perfbench/tracing.py wraps both names in this
# module, so they stay imported.
from .combinatorics import enumerate_dpartitions, standard_tableaux  # noqa: F401


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


# A state is the sorted (shape id, tableaux) pairs that a spectrum prefix of
# length k reaches, as IdCounts of size k; the empty prefix reaches the empty
# shape, id 0, once.
State = IdCounts
_ROOT: State = ((0, 1),)
# Per shape id of one size, the (rank, child shape id) of each addable box.
Moves = list[list[tuple[int, int]]]


@dataclass(frozen=True)
class CellDecomposition:
    """JM cells as a graph of merged states (see ``jm_cellular_characters``).

    ``values`` lists the build's distinct eigenvalues in increasing order, and
    ``moves[k]`` gives each shape id of size k < n the (rank, child shape id)
    of each of its addable boxes, the rank indexing ``values``; ranks follow
    value order.  No state's child states are kept: ``_step`` expands a state
    of size k from ``moves[k]`` into its moves, (rank, child state) in
    increasing rank order, so also in eigenvalue order.  ``paths[k]`` maps the
    states of size k = 0..n to the number of spectrum prefixes that reach
    them, so a state of size n is the character of that many cells.  A shape
    id is the shape's index among the d-partitions of its own size
    (``shape_index``), so each state is its character as ``IdCounts``
    (``character_counts``); ``walk`` hands these to its renderer, and
    ``cells`` lists them as they are.
    """

    values: tuple[Fraction, ...]
    moves: list[Moves]
    paths: tuple[dict[State, int], ...]

    def character_counts(self, k: int | None = None) -> dict[IdCounts, int]:
        """The distinct cell characters of size k (n by default) as
        ``IdCounts``, in canonical order, with multiplicities.

        Distinct states reach distinct shape counts, so their characters are
        distinct, and no cell is listed.  The states of size k and their path
        counts are those of a build for k: this equals
        ``jm_cellular_characters(params, k).character_counts()``.
        """
        n = len(self.paths) - 1
        if k is None:
            k = n
        elif not 0 <= k <= n:
            raise ValueError(f"size {k} is not in 0..{n}")
        return dict(sorted(self.paths[k].items()))

    @cached_property
    def cells(self) -> tuple[tuple[tuple[Fraction, ...], IdCounts], ...]:
        """Every cell as (spectrum, character ``IdCounts``), in increasing
        spectrum order; the cells of one final state share its tuple."""
        return tuple(self.walk(_same, _same))

    def walk(self, label, render) -> Iterator[tuple[tuple, object]]:
        """Every cell as (labelled spectrum, rendered character), in order.

        ``label`` runs once per distinct eigenvalue, and ``render`` once per
        final state, on its character as the size-n ``IdCounts`` that
        ``character_counts()`` lists, so a listing renders each distinct value
        and character once, not once per move or cell.  Each state below n, a
        key of ``paths[:-1]``, is expanded once per walk (``_step``), deepest
        level first, and its moves are linked to the next level's nodes once
        per edge, one dict per level.  Then each level extends the prefixes of
        the last in order, each by its state's moves in eigenvalue order, so
        every level stays sorted.  The last level is yielded cell by cell.
        """
        labels = [label(v) for v in self.values]
        nodes = {state: render(state) for state in self.paths[-1]}
        for level, moves in zip(reversed(self.paths[:-1]), reversed(self.moves)):
            nodes = {
                state: [
                    (labels[rank], nodes[child]) for rank, child in _step(state, moves)
                ]
                for state in level
            }
        # every shape has an addable box, so every state below n has moves
        level = iter([((), nodes[_ROOT])])
        for _ in self.moves:
            # a generator expression builds its outermost iterable at once, so
            # each level but the last is listed here
            level = (
                (prefix + (text,), child)
                for prefix, moves in list(level)
                for text, child in moves
            )
        return level


def _same(value):
    return value


def jm_cellular_characters(params: CMParams, n: int) -> CellDecomposition:
    """JM cells at size n: the standard tableaux grouped by their spectra.

    A tableau is a path in the branching graph that adds one box per step, and
    the edge adding a box carries its eigenvalue.  The move table is built on
    the shapes' component tuples: each size's shapes are the keys of its
    ``shape_index``, in id order, each addable box is found on the
    components, and the grown components are looked up in the next size's
    index for the child id.  An eigenvalue depends
    only on the box's (component, content), so each distinct pair among the
    addable boxes below n is evaluated once, a `BoxCoord` made for its first
    box alone (one ``tableau_spectrum`` call per build), and
    each edge carries its value's rank among the build's distinct values,
    ranked in increasing value order: equal values share a rank, and sorting
    ranks sorts values, also at c0 < 0, where value order reverses content
    order.  Moves are grouped and sorted on these ints.

    A spectrum prefix reaches some shapes, each by some number of tableaux,
    and prefixes that reach the same counts, one state, grow alike.  So the
    states are grown level by level: each distinct state is expanded once
    (``_step``), its moves grouped by rank into child states, and the number
    of prefixes reaching each state is counted alongside.  A state of size n
    is the character of as many cells as prefixes reach it.  The build keeps
    the move tables and the counts of every level, not the expanded states'
    children, so one build serves each size up to n
    (``CellDecomposition.character_counts``), and ``CellDecomposition.walk``
    expands the states again when cells are listed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # per size below n, (key, child shape id) per addable box of each shape,
    # in (component, row) order, keyed by the box's (component, content), on
    # which alone its eigenvalue depends; the first box of each key stands
    # for it.  Shapes are component tuples, in the order of their ids.
    firsts: dict[tuple[int, int], BoxCoord] = {}
    keyed_moves = []
    shapes = shape_index(params.d, 0)
    for size in range(n):
        child_id = shape_index(params.d, size + 1)
        rows = []
        for comps in shapes:
            row = []
            for c, comp in enumerate(comps):
                head, tail = comps[:c], comps[c + 1 :]
                # row a + 1 takes a box if it is shorter than the row above;
                # the row below the last, of length 0, always does
                for a, length in enumerate(comp + (0,)):
                    if a and comp[a - 1] == length:
                        continue
                    key = (c + 1, length - a)
                    if key not in firsts:
                        firsts[key] = BoxCoord(a + 1, length + 1, c + 1)
                    grown = comp[:a] + (length + 1,) + comp[a + 1 :]
                    row.append((key, child_id[head + (grown,) + tail]))
            rows.append(row)
        keyed_moves.append(rows)
        shapes = child_id
    # each distinct eigenvalue once, moves on its rank among them
    spectrum = tableau_spectrum(params, tuple(firsts.values()))
    values = tuple(sorted(set(spectrum)))
    rank = {v: i for i, v in enumerate(values)}
    key_rank = {key: rank[v] for key, v in zip(firsts, spectrum)}
    moves = [
        [[(key_rank[key], child) for key, child in row] for row in rows]
        for rows in keyed_moves
    ]

    paths = {_ROOT: 1}
    levels = [paths]
    for size_moves in moves:
        next_paths: dict[State, int] = {}
        for state, count in paths.items():
            for _, child in _step(state, size_moves):
                next_paths[child] = next_paths.get(child, 0) + count
        paths = next_paths
        levels.append(paths)
    return CellDecomposition(values, moves, tuple(levels))


def _step(state: State, moves: Moves) -> tuple[tuple[int, State], ...]:
    """A state's moves from its size's table, (rank, child state) by rank.

    The child of a rank is the shapes that the state's addable boxes of that
    rank grow into, each with the sum of the tableaux of the shapes it grows
    from.
    """
    grouped: dict[int, dict[int, int]] = {}
    for shape, tableaux in state:
        for r, child in moves[shape]:
            reached = grouped.setdefault(r, {})
            reached[child] = reached.get(child, 0) + tableaux
    return tuple((r, tuple(sorted(grouped[r].items()))) for r in sorted(grouped))
