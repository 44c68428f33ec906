"""Partitions, d-partitions, boxes, standard d-tableaux and character ids.

Conventions: a partition is a weakly decreasing tuple of positive ints; a
d-partition is the tuple of its d components, each a partition; a box is a
triple (row, col, comp), all 1-based; components of a d-partition are indexed
1..d in text and box coordinates.

Enumeration orders are fixed so that outputs are reproducible byte for byte:
partitions of n are listed largest part first, ending at (1,...,1), and
d-partitions are ordered by decreasing size of component 1, then the partition
order on component 1, then recursively on the remaining components.  The
d-partitions of n are enumerated in one place, `shape_index(d, n)`: a
read-only table of each to its id, built once per (d, n) for the whole
process, whose keys `enumerate_dpartitions` lists.

A row's text (`partition_text`) and sort key (`partition_sort_key`) are made
once per distinct partition for the whole process, and every text and key of
a tuple of partitions is assembled from these shared row pieces.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

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


@lru_cache(maxsize=None)
def partition_text(parts: Partition) -> str:
    """One component's text: parts joined by '.', the empty partition as '∅'.
    Made once per distinct partition."""
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


@lru_cache(maxsize=None)
def partition_sort_key(parts: Partition):
    """One component's place in `components_sort_key`: bigger first, then
    larger parts first.  Made once per distinct partition."""
    return -sum(parts), tuple(-p for p in parts)


def components_sort_key(components: tuple[Partition, ...]):
    """Total order matching enumerate_dpartitions on the components of
    d-partitions: big first components first."""
    return tuple(map(partition_sort_key, components))


def enumerate_dpartitions(d: int, n: int) -> tuple[tuple[Partition, ...], ...]:
    """All d-partitions of n, in the documented deterministic order: the keys
    of `shape_index(d, n)`, which validates and caches."""
    return tuple(shape_index(d, n))


@lru_cache(maxsize=None)
def shape_index(d: int, n: int) -> Mapping[tuple[Partition, ...], int]:
    """Each d-partition of n, mapped to its id: the one table of
    d-partitions, whose ids are the shape ids of ``IdCounts``.

    It is built once per (d, n) for the whole process, and the keys come in
    id order (the documented order), so the JM move table iterates them as
    the shapes of size n and looks up grown components in the next size's
    table.  A table is read-only, since every caller shares it.  It is built
    from ``partitions`` of each first component's size and the cached
    table of the remaining d - 1 components.  d < 1 or n < 0 raises
    ValueError.

    >>> dict(shape_index(2, 1))
    {((1,), ()): 0, ((), (1,)): 1}
    >>> shape_index(2, 1) is shape_index(2, 1)
    True
    >>> shape_index(2, 1)[((), (1,))] = 0
    Traceback (most recent call last):
    TypeError: 'mappingproxy' object does not support item assignment
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d == 1:
        shapes = ((lam,) for lam in partitions(n))
    else:
        shapes = (
            (lam,) + rest
            for size in range(n, -1, -1)
            for lam in partitions(size)
            for rest in shape_index(d - 1, n - size)
        )
    return MappingProxyType({comps: i for i, comps in enumerate(shapes)})


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
