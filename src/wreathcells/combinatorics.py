"""Partitions, d-partitions, boxes, standard d-tableaux and character sums.

Conventions: a partition is a weakly decreasing tuple of positive ints; a box
is a triple (row, col, comp), all 1-based; components of a d-partition are
indexed 1..d in text and box coordinates.

Enumeration orders are fixed so that outputs are reproducible byte for byte:
partitions of n are listed largest part first, ending at (1,...,1), and
d-partitions are ordered by decreasing size of component 1, then the partition
order on component 1, then recursively on the remaining components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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


@dataclass(frozen=True)
class DPartition:
    """A d-tuple of partitions; indexes an irreducible character of G(d,1,n)."""

    components: tuple[Partition, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a d-partition needs at least one component")
        for comp in self.components:
            if not is_partition(comp):
                raise ValueError(f"invalid partition component {comp!r}")

    @property
    def d(self) -> int:
        return len(self.components)

    @cached_property
    def size(self) -> int:
        """Number of boxes, computed on first use."""
        return sum(sum(c) for c in self.components)

    def with_component(self, comp_index: int, parts: Partition) -> "DPartition":
        comps = list(self.components)
        comps[comp_index - 1] = tuple(parts)
        return DPartition(tuple(comps))

    def text(self) -> str:
        return components_text(self.components)

    @cached_property
    def _sort_key(self):
        """dpartition_sort_key, computed on first use."""
        return components_sort_key(self.components)

    def __repr__(self):
        return f"DPartition({self.text()})"

    def __reduce__(self):
        # pickle and copy the components alone, so the cached size and sort
        # key never travel
        return DPartition, (self.components,)


def partition_text(parts: Partition) -> str:
    """One component's text: parts joined by '.', the empty partition as '∅'."""
    return ".".join(map(str, parts)) if parts else "∅"


def components_text(components: tuple[Partition, ...]) -> str:
    """Text form of a tuple of partitions: `partition_text`s joined by '|'."""
    return "|".join(map(partition_text, components))


def parse_dpartition(text: str) -> DPartition:
    """Inverse of DPartition.text; accepts "" as well as the empty-set sign."""
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
    return DPartition(tuple(comps))


def dpartition_sort_key(dp: DPartition):
    """Total order matching enumerate_dpartitions: big first components first.

    Computed once per d-partition and kept on it.
    """
    return dp._sort_key


def partition_sort_key(parts: Partition):
    """One component's place in `components_sort_key`: bigger first, then
    larger parts first."""
    return -sum(parts), tuple(-p for p in parts)


def components_sort_key(components: tuple[Partition, ...]):
    """dpartition_sort_key on a bare tuple of partitions."""
    return tuple(map(partition_sort_key, components))


@lru_cache(maxsize=None)
def enumerate_dpartitions(d: int, n: int) -> tuple[DPartition, ...]:
    """All d-partitions of n, in the documented deterministic order."""
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(DPartition(comps) for comps in dpartition_components(d, n))


def dpartition_components(d: int, n: int) -> Iterator[tuple[Partition, ...]]:
    """The components of every d-partition of n, in `enumerate_dpartitions`
    order, as bare tuples: nothing is validated, wrapped or kept."""
    if d == 1:
        for lam in partitions(n):
            yield (lam,)
        return
    for first_size in range(n, -1, -1):
        for lam in partitions(first_size):
            for rest in dpartition_components(d - 1, n - first_size):
                yield (lam,) + rest


def shape_index(d: int, n: int) -> dict[tuple[Partition, ...], int]:
    """The components of each d-partition of n, mapped to its index in
    `enumerate_dpartitions(d, n)`: the shape ids of ``IdCounts``.

    Nothing is validated or wrapped, and the keys come in id order, so the
    JM move table iterates them as the shapes of size n and looks up grown
    components in the next size's index; no `DPartition` is built.

    >>> shape_index(2, 0)
    {((), ()): 0}
    >>> def inverse(d, n):
    ...     return {dp.components: i for i, dp in enumerate(enumerate_dpartitions(d, n))}
    >>> all(shape_index(d, n) == inverse(d, n) for d in range(1, 5) for n in range(7))
    True
    """
    return {comps: i for i, comps in enumerate(dpartition_components(d, n))}


def addable_boxes(dp: DPartition) -> tuple[BoxCoord, ...]:
    """Boxes whose addition yields a valid Young diagram, ordered by (comp, row)."""
    out = []
    for ci, comp in enumerate(dp.components, start=1):
        for a in range(1, len(comp) + 2):
            row_len = comp[a - 1] if a <= len(comp) else 0
            above = comp[a - 2] if a >= 2 else None
            if above is None or above > row_len:
                out.append(BoxCoord(a, row_len + 1, ci))
    return tuple(out)


def removable_boxes(dp: DPartition) -> tuple[BoxCoord, ...]:
    """Boxes whose removal yields a valid Young diagram, ordered by (comp, row)."""
    out = []
    for ci, comp in enumerate(dp.components, start=1):
        for a in range(1, len(comp) + 1):
            below = comp[a] if a < len(comp) else 0
            if comp[a - 1] > below:
                out.append(BoxCoord(a, comp[a - 1], ci))
    return tuple(out)


def remove_box(dp: DPartition, box: BoxCoord) -> DPartition:
    comp = dp.components[box.comp - 1]
    new = list(comp)
    new[box.row - 1] -= 1
    while new and new[-1] == 0:
        new.pop()
    return dp.with_component(box.comp, tuple(new))


@dataclass(frozen=True)
class StandardTableau:
    """A standard d-tableau, stored as the sequence box(1), ..., box(n)."""

    shape: DPartition
    boxes: tuple[BoxCoord, ...]

    @property
    def n(self) -> int:
        return len(self.boxes)

    def text(self) -> str:
        return " -> ".join(f"({b.row},{b.col},{b.comp})" for b in self.boxes)


@lru_cache(maxsize=None)
def standard_tableaux(shape: DPartition) -> tuple[StandardTableau, ...]:
    """All standard d-tableaux of the given shape, deterministically ordered.

    The boxes are peeled off from the last: each level removes one removable
    box, in ``removable_boxes`` order, from every partial tableau in turn, so
    the tableaux come in lexicographic order of these choices.
    """
    level = [(shape, ())]
    for _ in range(shape.size):
        level = [
            (remove_box(dp, box), (box,) + boxes)
            for dp, boxes in level
            for box in removable_boxes(dp)
        ]
    return tuple(StandardTableau(shape, boxes) for _, boxes in level)


def tableau_count(shape: DPartition) -> int:
    """Number of standard tableaux: n! over the product of all hook lengths.

    This is the dimension of the irreducible of G(d,1,n) labelled by shape.
    """
    hooks = 1
    for comp in shape.components:
        for a, row_len in enumerate(comp):
            for b in range(row_len):
                below = sum(1 for r in comp[a + 1 :] if r > b)
                hooks *= row_len - b + below
    return math.factorial(shape.size) // hooks


# A character of size n as its (index in enumerate_dpartitions(d, n),
# multiplicity) pairs, sorted by index (`shape_index`), multiplicities
# positive.  Indices follow dpartition_sort_key, so these tuples sort as
# CharacterSum.sort_key does, and they hash in C.
IdCounts = tuple[tuple[int, int], ...]


class MalformedCharacter(ValueError):
    """A character whose entries break the invariants of `CharacterSum`: a
    multiplicity that is not positive, mixed (d, n), or entries not strictly
    sorted; as ``IdCounts``, also a shape index out of range."""


@dataclass(frozen=True)
class CharacterSum:
    """A formal nonnegative-integer combination of irreducible characters.

    Keys are d-partitions of one fixed n; entries are sorted by the canonical
    d-partition order and never carry zero multiplicities, so equal sums
    compare and hash equal.
    """

    entries: tuple[tuple[DPartition, int], ...]

    def __post_init__(self):
        seen_dn = None
        prev_key = None
        for dp, mult in self.entries:
            if mult <= 0:
                raise MalformedCharacter("multiplicities must be positive")
            dn = (dp.d, dp.size)
            if seen_dn is None:
                seen_dn = dn
            elif dn != seen_dn:
                raise MalformedCharacter("mixed (d, n) in one character sum")
            key = dpartition_sort_key(dp)
            if prev_key is not None and key <= prev_key:
                raise MalformedCharacter("entries must be strictly sorted")
            prev_key = key

    @classmethod
    def from_counts(cls, counts: dict[DPartition, int]) -> "CharacterSum":
        items = [(dp, m) for dp, m in counts.items() if m]
        items.sort(key=lambda it: dpartition_sort_key(it[0]))
        return cls(tuple(items))

    @classmethod
    def from_ids(cls, shapes, ids: IdCounts) -> "CharacterSum":
        """The character sum of (index in ``shapes``, multiplicity) pairs.

        ``shapes`` lists d-partitions in ``enumerate_dpartitions`` order and
        ``ids`` is sorted by index, so nothing is sorted here.
        """
        return cls(tuple((shapes[i], m) for i, m in ids))

    def counts(self) -> dict[DPartition, int]:
        return dict(self.entries)

    def multiplicity(self, dp: DPartition) -> int:
        return dict(self.entries).get(dp, 0)

    def support(self) -> tuple[DPartition, ...]:
        return tuple(dp for dp, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def text(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            dp.text() if m == 1 else f"{m}*{dp.text()}" for dp, m in self.entries
        )

    def to_json_obj(self) -> dict[str, int]:
        return {dp.text(): m for dp, m in self.entries}

    def sort_key(self):
        return tuple((dpartition_sort_key(dp), m) for dp, m in self.entries)

    def __repr__(self):
        return f"CharacterSum({self.text()})"
