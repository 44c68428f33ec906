import dataclasses
import json
import pickle
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    CharacterSum,
    addable_boxes,
    recursive_standard_tableaux,
    recursive_tableau_count,
)
from wreathcells.combinatorics import (
    BoxCoord,
    DPartition,
    components_sort_key,
    content,
    enumerate_dpartitions,
    parse_dpartition,
    removable_boxes,
    standard_tableaux,
    tableau_count,
)


def dp(*comps):
    return DPartition(tuple(tuple(c) for c in comps))


partitions_st = st.lists(st.integers(1, 4), max_size=4).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
dpartitions_st = st.lists(partitions_st, min_size=1, max_size=3).map(
    lambda cs: DPartition(tuple(cs))
)


def partition_count_oracle(n: int) -> list[int]:
    """p(0..n) by the coin-change recurrence, independent of the enumerator."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


def test_enumerate_trivial():
    assert enumerate_dpartitions(1, 0) == (dp(()),)


def test_enumerate_d2_n2_exact_order():
    got = enumerate_dpartitions(2, 2)
    assert got == (
        dp((2,), ()),
        dp((1, 1), ()),
        dp((1,), (1,)),
        dp((), (2,)),
        dp((), (1, 1)),
    )


def test_enumerate_count_generating_function():
    p = partition_count_oracle(3)
    expected = sum(
        p[a] * p[b] * p[3 - a - b] for a in range(4) for b in range(4 - a)
    )
    assert len(enumerate_dpartitions(3, 3)) == expected


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_enumerate_no_duplicates(d, n):
    items = enumerate_dpartitions(d, n)
    assert len(set(items)) == len(items)
    assert all(x.size == n and x.d == d for x in items)


def test_removable_single_row():
    assert removable_boxes(dp((2,), ())) == (BoxCoord(1, 2, 1),)


def test_addable_empty():
    assert addable_boxes(dp((), ())) == (BoxCoord(1, 1, 1), BoxCoord(1, 1, 2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_addable_removable_count(d):
    for n in range(6):
        for shape in enumerate_dpartitions(d, n):
            assert len(addable_boxes(shape)) == len(removable_boxes(shape)) + d


def test_content():
    assert content(BoxCoord(1, 1, 3)) == 0
    assert content(BoxCoord(1, 2, 1)) == 1
    assert content(BoxCoord(3, 1, 2)) == -2


def test_tableau_counts_small():
    assert len(standard_tableaux(dp((1,), (1,)))) == 2
    assert len(standard_tableaux(dp((2,), ()))) == 1


@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_group_order_identity(d, n):
    total = sum(
        len(standard_tableaux(shape)) ** 2 for shape in enumerate_dpartitions(d, n)
    )
    assert total == d**n * factorial(n)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 3)])
def test_branching_consistency(d, n):
    from wreathcells.combinatorics import remove_box

    for shape in enumerate_dpartitions(d, n):
        assert tableau_count(shape) == sum(
            tableau_count(remove_box(shape, box)) for box in removable_boxes(shape)
        )
        assert tableau_count(shape) == len(standard_tableaux(shape))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tableaux_match_the_branching_recursion(d):
    for n in range(7):
        for shape in enumerate_dpartitions(d, n):
            assert standard_tableaux(shape) == recursive_standard_tableaux(shape)
            assert tableau_count(shape) == recursive_tableau_count(shape)


def test_tableaux_of_a_thousand_boxes():
    # neither routine recurses once per box
    row = dp((1100,))
    assert tableau_count(row) == 1
    assert tableau_count(dp((1000,), (1,))) == 1001
    (tab,) = standard_tableaux(row)
    assert tab.boxes == tuple(BoxCoord(1, b, 1) for b in range(1, 1101))


@given(dpartitions_st)
def test_text_round_trip(dpart):
    assert parse_dpartition(dpart.text()) == dpart


def test_text_examples():
    assert dp((2, 1), (), (1,)).text() == "2.1|∅|1"
    assert parse_dpartition("2.1||1") == dp((2, 1), (), (1,))


def test_character_sum_basics():
    a = CharacterSum.from_counts({dp((2,), ()): 1, dp((1,), (1,)): 2})
    b = CharacterSum.from_counts({dp((1,), (1,)): 2, dp((2,), ()): 1})
    assert a == b and hash(a) == hash(b)
    assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())
    assert a.to_json_obj() == {"2|∅": 1, "1|1": 2}


def test_character_sum_rejects_mixed_sizes():
    with pytest.raises(ValueError):
        CharacterSum.from_counts({dp((2,), ()): 1, dp((1,), ()): 1})


def test_filled_sort_key_keeps_value_semantics():
    def fresh():
        return DPartition(((2, 1), (), (1,)))

    filled = fresh()
    key = components_sort_key(filled.components)
    assert filled.size == 4
    assert key == ((-3, (-2, -1)), (0, ()), (-1, (-1,)))
    new = fresh()
    assert filled == new and hash(filled) == hash(new) and repr(filled) == repr(new)
    assert [f.name for f in dataclasses.fields(filled)] == ["components"]
    assert dataclasses.asdict(filled) == dataclasses.asdict(new)
    assert pickle.dumps(filled) == pickle.dumps(new)
    back = pickle.loads(pickle.dumps(filled))
    assert back == new and hash(back) == hash(new)
    assert CharacterSum.from_counts({filled: 1}) == CharacterSum.from_counts({new: 1})


# IdCounts compare characters by their indices in enumerate_dpartitions, which
# is sound only while that order is the canonical one.
@pytest.mark.parametrize("d, max_n", [(1, 8), (2, 8), (3, 8), (4, 7), (5, 7)])
def test_sort_key_strictly_increases_along_enumeration(d, max_n):
    for n in range(max_n + 1):
        keys = [components_sort_key(dp.components) for dp in enumerate_dpartitions(d, n)]
        assert all(a < b for a, b in zip(keys, keys[1:])), (d, n)


def test_from_ids_reads_shapes_by_index():
    shapes = enumerate_dpartitions(2, 2)
    ids = ((0, 2), (3, 1))
    built = CharacterSum.from_ids(shapes, ids)
    assert built == CharacterSum.from_counts({shapes[3]: 1, shapes[0]: 2})
    with pytest.raises(ValueError, match="strictly sorted"):
        CharacterSum.from_ids(shapes, ids[::-1])
