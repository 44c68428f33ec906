"""The CLI's character renderer, `cli._Characters`, against `CharacterSum`.

`check` and `jm-cells` render each character from its ``IdCounts`` with
shape texts made once per listing.  `CharacterSum.from_ids(shapes, ids)`,
with its own `text` and `to_json_obj`, is the oracle: for every distinct
character that either side produces at a battery of points, for random
valid ids, and for the invariants a malformed character breaks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wreathcells.cli as cli
from wreathcells import (
    CharacterSum,
    MalformedCharacter,
    check_conjecture_sizes,
    enumerate_dpartitions,
    jm_cellular_characters,
    params_from_r,
)
from wreathcells.cli import _json_text
from wreathcells.fock import lm_constructible_by_height

HALF = Fraction(-1, 2)
# (charges, c0, sizes): d = 1, n = 0, c0 < 0, and an unequal point
POINTS = [
    ((3,), 1, (0, 1, 2, 5)),
    ((1, 0), 1, (0, 1, 2, 4)),
    ((2, 0), HALF, (2, 3, 5)),
    ((1, 1, 0), 1, (0, 2, 4)),
    ((1, 1, 0), HALF, (3, 4)),
    ((2, 1, 0), 1, (2, 5)),
    ((0, 0, 0, 0), 1, (1, 2, 3)),
]


def _sides(charges, c0, sizes):
    """Per size, the distinct ids of JM, LM and (at n = 2) the closed forms."""
    params = params_from_r(charges, c0)
    jm = jm_cellular_characters(params, max(sizes))
    lm = lm_constructible_by_height(charges, sizes)
    by_size = {n: set(jm.character_counts(n)) | set(lm[n].values()) for n in sizes}
    if 2 in sizes:
        (exact,) = check_conjecture_sizes(params, (2,))
        assert exact.mode == "exact-n2"
        by_size[2] |= set(exact.cm_ids)
    return by_size


def _assert_rendered_as_character_sum(characters, shapes, ids):
    cs = CharacterSum.from_ids(shapes, ids)
    assert characters.text(ids) == cs.text()
    for depth in (2, 3):
        assert characters.json(ids, depth) == _json_text(cs.to_json_obj(), depth)


@pytest.mark.parametrize(
    "charges, c0, sizes", POINTS, ids=[f"{r}-c0={c0}" for r, c0, _ in POINTS]
)
def test_every_character_renders_as_its_character_sum(charges, c0, sizes):
    for n, distinct in _sides(charges, c0, sizes).items():
        shapes = enumerate_dpartitions(len(charges), n)
        characters = cli._Characters(len(charges), n)
        assert distinct
        for ids in sorted(distinct):
            _assert_rendered_as_character_sum(characters, shapes, ids)


@st.composite
def valid_ids(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    count = len(enumerate_dpartitions(d, n))
    indices = draw(st.sets(st.integers(0, count - 1), max_size=count))
    mults = st.integers(1, 4) | st.integers(5, 2**70)
    ids = tuple((i, draw(mults)) for i in sorted(indices))
    return d, n, ids


@settings(max_examples=200, deadline=None)
@given(valid_ids())
def test_random_ids_render_as_their_character_sum(case):
    d, n, ids = case
    characters = cli._Characters(d, n)
    _assert_rendered_as_character_sum(characters, enumerate_dpartitions(d, n), ids)


MALFORMED = {
    "unsorted": (((1, 1), (0, 1)), "entries must be strictly sorted"),
    "repeated": (((0, 1), (2, 1), (2, 3)), "entries must be strictly sorted"),
    "zero": (((0, 1), (1, 0)), "multiplicities must be positive"),
    "negative": (((0, -2),), "multiplicities must be positive"),
}


@pytest.mark.parametrize("ids, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_ids_raise_as_character_sum_does(ids, message):
    shapes = enumerate_dpartitions(2, 2)
    with pytest.raises(MalformedCharacter, match=f"^{message}$"):
        CharacterSum.from_ids(shapes, ids)
    characters = cli._Characters(2, 2)
    with pytest.raises(MalformedCharacter, match=f"^{message}$"):
        characters.text(ids)
    with pytest.raises(MalformedCharacter, match=f"^{message}$"):
        characters.json(ids, 2)


@pytest.mark.parametrize("index", [5, 99, -1])
def test_an_index_out_of_range_is_malformed(index):
    # d = 2, n = 2 has five shapes, indices 0..4
    assert len(enumerate_dpartitions(2, 2)) == 5
    characters = cli._Characters(2, 2)
    ids = ((0, 1), (index, 1)) if index > 0 else ((index, 1), (0, 1))
    message = f"^shape index {index} is not in 0..4$"
    for render in characters.text, lambda ids: characters.json(ids, 2):
        with pytest.raises(MalformedCharacter, match=message):
            render(ids)
