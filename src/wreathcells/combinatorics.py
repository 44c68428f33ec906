"""Partitions, d-partitions, boxes, standard d-tableaux and character ids.

Conventions: a partition is a weakly decreasing tuple of positive ints; a
d-partition is the tuple of its d components, each a partition; a box is a
triple (row, col, comp), all 1-based; components of a d-partition are indexed
1..d in text and box coordinates.

Enumeration orders are fixed so that outputs are reproducible byte for byte:
partitions of n are listed largest part first, ending at (1,...,1), and
d-partitions are ordered by decreasing size of component 1, then the partition
order on component 1, then recursively on the remaining components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n with parts bounded by max_part, largest part first."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


class BoxCoord(NamedTuple):
    row: int
    col: int
    comp: int


def content(box: BoxCoord) -> int:
    """col - row, the usual diagonal content of a box."""
    return box.col - box.row


def partition_text(parts: Partition) -> str:
    """One component's text: parts joined by '.', the empty partition as '∅'."""
    return ".".join(map(str, parts)) if parts else "∅"


def components_text(components: tuple[Partition, ...]) -> str:
    """Text form of a tuple of partitions: `partition_text`s joined by '|'."""
    return "|".join(map(partition_text, components))


def parse_dpartition(text: str) -> tuple[Partition, ...]:
    """Inverse of `components_text`; accepts "" as well as the empty-set sign."""
    comps = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        if chunk in ("", "∅"):
            comps.append(())
        else:
            try:
                comps.append(tuple(int(p) for p in chunk.split(".")))
            except ValueError:
                raise ValueError(
                    f"component {chunk!r} is not integers joined by '.'"
                ) from None
    for comp in comps:
        if not is_partition(comp):
            raise ValueError(f"invalid partition component {comp!r}")
    return tuple(comps)


def partition_sort_key(parts: Partition):
    """One component's place in `components_sort_key`: bigger first, then
    larger parts first."""
    return -sum(parts), tuple(-p for p in parts)


def components_sort_key(components: tuple[Partition, ...]):
    """Total order matching enumerate_dpartitions on the components of
    d-partitions: big first components first."""
    return tuple(map(partition_sort_key, components))


@lru_cache(maxsize=None)
def enumerate_dpartitions(d: int, n: int) -> tuple[tuple[Partition, ...], ...]:
    """All d-partitions of n, in the documented deterministic order."""
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(dpartition_components(d, n))


def dpartition_components(d: int, n: int) -> Iterator[tuple[Partition, ...]]:
    """Every d-partition of n, in `enumerate_dpartitions` order, made as it
    is asked for: nothing is validated or kept."""
    if d == 1:
        for lam in partitions(n):
            yield (lam,)
        return
    for first_size in range(n, -1, -1):
        for lam in partitions(first_size):
            for rest in dpartition_components(d - 1, n - first_size):
                yield (lam,) + rest


def shape_index(d: int, n: int) -> dict[tuple[Partition, ...], int]:
    """Each d-partition of n, mapped to its index in
    `enumerate_dpartitions(d, n)`: the shape ids of ``IdCounts``.

    Nothing is validated, and the keys come in id order, so the JM move
    table iterates them as the shapes of size n and looks up grown
    components in the next size's index.

    >>> shape_index(2, 0)
    {((), ()): 0}
    >>> def inverse(d, n):
    ...     return {dp: i for i, dp in enumerate(enumerate_dpartitions(d, n))}
    >>> all(shape_index(d, n) == inverse(d, n) for d in range(1, 5) for n in range(7))
    True
    """
    return {comps: i for i, comps in enumerate(dpartition_components(d, n))}


def removable_boxes(dp: tuple[Partition, ...]) -> tuple[BoxCoord, ...]:
    """Boxes whose removal yields a valid Young diagram, ordered by (comp, row)."""
    out = []
    for ci, comp in enumerate(dp, start=1):
        for a in range(1, len(comp) + 1):
            below = comp[a] if a < len(comp) else 0
            if comp[a - 1] > below:
                out.append(BoxCoord(a, comp[a - 1], ci))
    return tuple(out)


def remove_box(dp: tuple[Partition, ...], box: BoxCoord) -> tuple[Partition, ...]:
    """The d-partition with ``box``, a removable box of ``dp``, taken away."""
    c, a = box.comp - 1, box.row - 1
    comp = dp[c]
    part = (comp[a] - 1,) if comp[a] > 1 else ()
    return dp[:c] + (comp[:a] + part + comp[a + 1 :],) + dp[c + 1 :]


@dataclass(frozen=True)
class StandardTableau:
    """A standard d-tableau, stored as the sequence box(1), ..., box(n)."""

    shape: tuple[Partition, ...]
    boxes: tuple[BoxCoord, ...]

    @property
    def n(self) -> int:
        return len(self.boxes)

    def text(self) -> str:
        return " -> ".join(f"({b.row},{b.col},{b.comp})" for b in self.boxes)


@lru_cache(maxsize=None)
def standard_tableaux(shape: tuple[Partition, ...]) -> tuple[StandardTableau, ...]:
    """All standard d-tableaux of the given shape, deterministically ordered.

    The boxes are peeled off from the last: each level removes one removable
    box, in ``removable_boxes`` order, from every partial tableau in turn, so
    the tableaux come in lexicographic order of these choices.
    """
    level = [(shape, ())]
    for _ in range(sum(map(sum, shape))):
        level = [
            (remove_box(dp, box), (box,) + boxes)
            for dp, boxes in level
            for box in removable_boxes(dp)
        ]
    return tuple(StandardTableau(shape, boxes) for _, boxes in level)


def tableau_count(shape: tuple[Partition, ...]) -> int:
    """Number of standard tableaux: n! over the product of all hook lengths.

    This is the dimension of the irreducible of G(d,1,n) labelled by shape.
    """
    hooks = 1
    for comp in shape:
        for a, row_len in enumerate(comp):
            for b in range(row_len):
                below = sum(1 for r in comp[a + 1 :] if r > b)
                hooks *= row_len - b + below
    return math.factorial(sum(map(sum, shape))) // hooks


# A character of size n as its (index in enumerate_dpartitions(d, n),
# multiplicity) pairs, sorted by index (`shape_index`), multiplicities
# positive.  Indices follow components_sort_key, so these tuples sort as the
# characters do in canonical shape order, and they hash in C.
IdCounts = tuple[tuple[int, int], ...]


class MalformedCharacter(ValueError):
    """A character whose ``IdCounts`` break their invariants: a multiplicity
    that is not positive, indices not strictly increasing, or a shape index
    out of range."""
