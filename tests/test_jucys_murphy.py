import dataclasses
import itertools
import json
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wreathcells.conjecture as conjecture
import wreathcells.jucys_murphy as jm
from wreathcells.combinatorics import (
    BoxCoord,
    DPartition,
    StandardTableau,
    enumerate_dpartitions,
    standard_tableaux,
    tableau_count,
)
from wreathcells.jucys_murphy import (
    CMParams,
    is_generic,
    jm_cellular_characters,
    jm_eigenvalue,
    tableau_spectrum,
)
from wreathcells.cli import cli_main

from helpers import (
    CharacterSum,
    addable_boxes,
    direct_spectrum,
    euler_value,
    grown,
    jm_cells_by_tableaux,
    jm_cells_by_trie,
    jm_moves_by_dpartitions,
    rendered_cells,
    scaled,
)


def dp(*comps):
    return DPartition(tuple(tuple(c) for c in comps))


P_GAP1 = CMParams.from_ksharp(2, 1, (-1, 0))


def test_eigenvalue_examples():
    assert jm_eigenvalue(P_GAP1, BoxCoord(1, 1, 1)) == -2
    p = CMParams.from_ksharp(3, 7, (5, 0, -3))
    assert jm_eigenvalue(p, BoxCoord(1, 1, 2)) == 0
    p1 = CMParams.from_ksharp(1, 1, (0,))
    assert jm_eigenvalue(p1, BoxCoord(2, 4, 1)) == -2  # -(b - a) = -(4 - 2)


# Matrix oracle: represent J_2 and J_3 on the regular module of the symmetric
# group on three letters and read off the joint spectrum by exact linear
# algebra; compare with the eigenvalue formula applied to tableaux.


def _compose(g, h):
    # (g h)(x) = g(h(x)); permutations as tuples, g[i-1] = image of i
    return tuple(g[h[i] - 1] for i in range(3))


def _transposition(i, j):
    img = [1, 2, 3]
    img[i - 1], img[j - 1] = img[j - 1], img[i - 1]
    return tuple(img)


def _right_mult_matrix(element):
    """Matrix of v -> v * element on the regular module, element = {perm: coeff}."""
    basis = sorted(itertools.permutations((1, 2, 3)))
    index = {g: i for i, g in enumerate(basis)}
    mat = [[Fraction(0)] * 6 for _ in range(6)]
    for col, g in enumerate(basis):
        for perm, coeff in element.items():
            mat[index[_compose(g, perm)]][col] += coeff
    return mat


def _nullity(rows):
    mat = [row[:] for row in rows]
    cols = len(mat[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col]
        mat[rank] = [x / inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return cols - rank


def test_symmetric_group_matrix_oracle():
    c0 = Fraction(1)
    j2 = _right_mult_matrix({_transposition(1, 2): -c0})
    j3 = _right_mult_matrix(
        {_transposition(1, 3): -c0, _transposition(2, 3): -c0}
    )

    def joint_multiplicity(a, b):
        stacked = []
        for r in range(6):
            stacked.append([j2[r][c] - (a if r == c else 0) for c in range(6)])
        for r in range(6):
            stacked.append([j3[r][c] - (b if r == c else 0) for c in range(6)])
        return _nullity(stacked)

    # scan a grid wide enough to contain every possible integer eigenvalue
    grid = [Fraction(v) for v in range(-3, 4)]
    observed = {
        (a, b): joint_multiplicity(a, b)
        for a in grid
        for b in grid
        if joint_multiplicity(a, b)
    }
    assert sum(observed.values()) == 6  # the full regular module is accounted for

    params = CMParams.from_ksharp(1, c0, (0,))
    predicted = {}
    for shape in enumerate_dpartitions(1, 3):
        mult = tableau_count(shape)
        for tab in standard_tableaux(shape):
            spec = tableau_spectrum(params, tab.boxes)
            key = (spec[1], spec[2])
            predicted[key] = predicted.get(key, 0) + mult
    assert observed == predicted


def test_spectrum_examples():
    tab = standard_tableaux(dp((2,), ()))[0]
    assert tableau_spectrum(P_GAP1, tab.boxes) == (-2, -4)
    shape = dp((1,), (1,))
    specs = {tableau_spectrum(P_GAP1, t.boxes) for t in standard_tableaux(shape)}
    assert specs == {(Fraction(-2), Fraction(0)), (Fraction(0), Fraction(-2))}


def test_euler_examples():
    assert euler_value(P_GAP1, dp((), ())) == 0
    assert euler_value(P_GAP1, dp((1,), (1,))) == -2


PARAM_BATTERY = [
    CMParams.from_ksharp(1, 1, (0,)),
    CMParams.from_ksharp(2, 1, (-1, 0)),
    CMParams.from_ksharp(2, Fraction(2, 3), (Fraction(1, 2), 0)),
    CMParams.from_ksharp(3, 1, (-2, -1, 0)),
    CMParams.from_ksharp(3, Fraction(-1, 2), (1, 1, 0)),
]


@pytest.mark.parametrize("params", PARAM_BATTERY)
def test_spectrum_telescopes_to_euler(params):
    for n in range(5 if params.d < 3 else 4):
        for shape in enumerate_dpartitions(params.d, n):
            ev = euler_value(params, shape)
            for tab in standard_tableaux(shape):
                assert sum(tableau_spectrum(params, tab.boxes)) == ev


def test_is_generic_examples():
    report = is_generic(P_GAP1, 2)
    assert not report.generic
    p, q, j = report.witness
    assert P_GAP1.k[p] - P_GAP1.k[q] == P_GAP1.c0 * j

    wide = CMParams.from_ksharp(3, 1, (-14, -7, 0))
    assert is_generic(wide, 3).generic

    zero_c0 = CMParams.from_ksharp(2, 0, (-1, 0))
    report = is_generic(zero_c0, 2)
    assert not report.generic and report.witness is None


def test_cells_gap_one():
    dec = jm_cellular_characters(P_GAP1, 2)
    chars = {cs.text() for _, cs in rendered_cells(dec)}
    assert chars == {
        "2|∅",
        "1.1|∅ + 1|1",
        "1|1 + ∅|2",
        "∅|1.1",
    }
    spectra = [spec for spec, _ in dec.cells]
    assert len(spectra) == 4 and len(set(spectra)) == 4


def test_cells_generic_all_singletons():
    params = CMParams.from_ksharp(3, 1, (-14, -7, 0))
    dec = jm_cellular_characters(params, 3)
    assert is_generic(params, 3).generic
    for _, cs in rendered_cells(dec):
        assert len(cs.entries) == 1 and cs.entries[0][1] == 1
    # one cell per tableau, one distinct character per shape
    assert len(dec.cells) == sum(
        tableau_count(shape) for shape in enumerate_dpartitions(3, 3)
    )
    assert len(dec.character_counts()) == len(enumerate_dpartitions(3, 3))
    # distinct spectra across all tableaux is the content of genericity
    all_specs = [
        tableau_spectrum(params, t.boxes)
        for shape in enumerate_dpartitions(3, 3)
        for t in standard_tableaux(shape)
    ]
    assert len(all_specs) == len(set(all_specs))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generic_spectra_pairwise_distinct(d, n):
    # gaps of size n between consecutive ksharp values are generic for size n
    params = CMParams.from_ksharp(d, 1, [-n * i for i in range(d)])
    assert is_generic(params, n).generic
    specs = [
        tableau_spectrum(params, tab.boxes)
        for shape in enumerate_dpartitions(d, n)
        for tab in standard_tableaux(shape)
    ]
    assert len(specs) == len(set(specs))


def test_cells_collapse_when_constant():
    params = CMParams.from_ksharp(2, 0, (5, 5))
    dec = jm_cellular_characters(params, 2)
    assert len(dec.cells) == 1
    total = sum(m for _, cs in rendered_cells(dec) for _, m in cs.entries)
    assert total == sum(
        tableau_count(shape) for shape in enumerate_dpartitions(2, 2)
    )


@pytest.mark.parametrize("params", PARAM_BATTERY)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_partition_of_unity(params, n):
    dec = jm_cellular_characters(params, n)
    cells = rendered_cells(dec)
    for shape in enumerate_dpartitions(params.d, n):
        total = sum(cs.multiplicity(shape) for _, cs in cells)
        assert total == tableau_count(shape)
    # every level of the one build, its ids read among the shapes of its size
    for k in range(n + 1):
        shapes = enumerate_dpartitions(params.d, k)
        totals = Counter()
        for ids, paths in dec.character_counts(k).items():
            for i, m in ids:
                totals[i] += paths * m
        assert totals == Counter(
            {i: tableau_count(shape) for i, shape in enumerate(shapes)}
        )


nonzero_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda x: x != 0)


@given(nonzero_rationals)
def test_scaling_covariance(factor):
    params = CMParams.from_ksharp(2, 1, (-1, 0))
    scaled_params = scaled(params, factor)
    base = jm_cellular_characters(params, 2)
    other = jm_cellular_characters(scaled_params, 2)
    assert base.character_counts().keys() == other.character_counts().keys()
    base_specs = {tuple(factor * x for x in spec) for spec, _ in base.cells}
    assert base_specs == {spec for spec, _ in other.cells}


def test_json_shape(capsys):
    argv = ["jm-cells", "--c0", "1", "--k=-1,0", "--n", "2", "--format", "json"]
    assert cli_main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["generic"] is False
    assert len(obj["cells"]) == 4
    assert all(
        isinstance(cell["spectrum"], list) and isinstance(cell["character"], dict)
        for cell in obj["cells"]
    )


# Rationals with denominators 1, 2 and 3, negative and zero included.
thirds_and_halves = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.sampled_from([1, 2, 3])
)


@st.composite
def cm_params(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.lists(thirds_and_halves, min_size=d, max_size=d))
    return CMParams(d, draw(thirds_and_halves), tuple(k))


@settings(max_examples=25, deadline=None)
@given(cm_params())
def test_spectrum_matches_direct_oracle(params):
    for n in range(6):
        for shape in enumerate_dpartitions(params.d, n):
            for tab in standard_tableaux(shape):
                assert tableau_spectrum(params, tab.boxes) == direct_spectrum(params, tab)
    for comp in (0, params.d + 1):
        with pytest.raises(ValueError):
            jm_eigenvalue(params, BoxCoord(1, 1, comp))


@st.composite
def params_and_size(draw):
    params = draw(cm_params())
    return params, draw(st.integers(min_value=0, max_value=6 if params.d < 4 else 5))


@settings(max_examples=40, deadline=None)
@given(params_and_size())
@example((P_GAP1, -1))
def test_trie_cells_match_per_tableau_oracle(point):
    # the whole decomposition: cell order, spectra, characters and report
    params, n = point
    if n < 0:
        for build in (jm_cellular_characters, jm_cells_by_trie):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                build(params, n)
        return
    dec = jm_cellular_characters(params, n)
    counts = dec.character_counts()
    assert "cells" not in vars(dec)
    cells = rendered_cells(dec)
    # one distinct character per final state, as many cells as paths into it
    characters = {cs for _, cs in cells}
    assert len(characters) == len(counts) == len(dec.paths[-1])
    assert sum(counts.values()) == len(cells)
    for oracle in (jm_cells_by_tableaux, jm_cells_by_trie):
        expected = oracle(params, n)
        assert cells == expected.cells
        assert is_generic(params, n) == expected.report


def test_build_evaluates_each_distinct_box_key_once_and_builds_no_tableau(
    monkeypatch,
):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("tableau_spectrum", "jm_eigenvalue"):
        monkeypatch.setattr(jm, name, counting(name, getattr(jm, name)))
    monkeypatch.setattr(
        StandardTableau, "__init__", counting("tableau", StandardTableau.__init__)
    )
    jm_cellular_characters(P_GAP1, 6).cells
    below = [dp for size in range(6) for dp in enumerate_dpartitions(2, size)]
    keys = {
        (box.comp, box.col - box.row) for dp in below for box in addable_boxes(dp)
    }
    assert calls["tableau"] == 0
    assert calls["tableau_spectrum"] == 1
    assert calls["jm_eigenvalue"] == len(keys) == 22


# Eigenvalues collide (c0 = 0, coinciding charges) or run against content
# order (c0 < 0); ranks must follow value order either way.
RANK_POINTS = [
    (CMParams.from_ksharp(2, 0, (0, 0)), 4),
    (CMParams.from_ksharp(3, 0, (1, 0, 1)), 4),
    (CMParams.from_ksharp(2, -1, (1, 0)), 5),
    (CMParams.from_ksharp(3, Fraction(-1, 2), (1, Fraction(1, 2), 0)), 4),
    (CMParams(3, Fraction(2, 3), (Fraction(1, 2), Fraction(0), Fraction(-3))), 4),
    (CMParams.from_ksharp(1, 1, (0,)), 6),
    (P_GAP1, 0),
    (P_GAP1, 1),
]


def _assert_moves_follow_value_order(params, n):
    dec = jm_cellular_characters(params, n)
    assert all(a < b for a, b in zip(dec.values, dec.values[1:]))
    assert len(dec.moves) == n
    for k, level in enumerate(dec.paths[:-1]):
        # ids of size k index the shapes of size k, and children those of k + 1
        shapes = enumerate_dpartitions(params.d, k)
        grown_shapes = enumerate_dpartitions(params.d, k + 1)
        child_id = {shape: i for i, shape in enumerate(grown_shapes)}
        assert len(dec.moves[k]) == len(shapes)
        for state in level:
            moves = jm._step(state, dec.moves[k])
            # the child of each value: the shapes grown by boxes of that value
            expected: dict = {}
            for s, tableaux in state:
                for box in addable_boxes(shapes[s]):
                    reached = expected.setdefault(jm_eigenvalue(params, box), Counter())
                    reached[child_id[grown(shapes[s], box)]] += tableaux
            assert [dec.values[r] for r, _ in moves] == sorted(expected)
            for r, child in moves:
                assert child == tuple(sorted(expected[dec.values[r]].items()))
    for oracle in (jm_cells_by_trie, jm_cells_by_tableaux):
        assert rendered_cells(dec) == oracle(params, n).cells


@pytest.mark.parametrize("params, n", RANK_POINTS)
def test_moves_follow_value_order_where_values_collide_or_reverse(params, n):
    _assert_moves_follow_value_order(params, n)


SMALL_RATIONALS = [Fraction(x) for x in ("-1", "-1/2", "0", "1/2", "1", "2/3")]


@st.composite
def colliding_params_and_size(draw):
    # few values, so that eigenvalues of different boxes often coincide
    d = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.lists(st.sampled_from(SMALL_RATIONALS[2:]), min_size=d, max_size=d))
    c0 = draw(st.sampled_from(SMALL_RATIONALS))
    return CMParams(d, c0, tuple(k)), draw(st.integers(min_value=0, max_value=4))


@settings(max_examples=30, deadline=None)
@given(colliding_params_and_size())
def test_moves_follow_value_order_random(point):
    _assert_moves_follow_value_order(*point)


# The move table is built on bare component tuples; the oracle builds it from
# validated d-partitions and their addable boxes.  Tied charges make equal
# eigenvalues, rational ones distinct values, and c0 < 0 reverses content
# order.
TIED_AND_RATIONAL_KSHARP = {
    1: [(0,), (Fraction(1, 2),)],
    2: [(0, 0), (1, Fraction(-1, 2))],
    3: [(1, 1, 0), (Fraction(2, 3), 0, Fraction(-1, 2))],
    4: [(1, 1, 0, 0), (Fraction(1, 3), Fraction(-1, 2), 0, 2)],
}


def _assert_move_table_matches_oracle(params, n):
    dec = jm_cellular_characters(params, n)
    assert (dec.values, dec.moves, dec.paths) == jm_moves_by_dpartitions(params, n)


@pytest.mark.parametrize("c0", [Fraction(1), Fraction(-1, 2), Fraction(0)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_move_table_matches_dpartition_oracle(d, c0):
    for ksharp in TIED_AND_RATIONAL_KSHARP[d]:
        for n in range(7):
            _assert_move_table_matches_oracle(CMParams.from_ksharp(d, c0, ksharp), n)


@settings(max_examples=30, deadline=None)
@given(colliding_params_and_size())
def test_move_table_matches_dpartition_oracle_random(point):
    _assert_move_table_matches_oracle(*point)


def test_check_expands_each_state_once_and_keeps_no_child_states(monkeypatch):
    steps = []
    step = jm._step

    def counting(state, moves):
        steps.append((id(moves), state))
        return step(state, moves)

    builds = []
    build = conjecture.jm_cellular_characters

    def kept(params, n):
        builds.append(build(params, n))
        return builds[-1]

    monkeypatch.setattr(jm, "_step", counting)
    monkeypatch.setattr(conjecture, "jm_cellular_characters", kept)
    params = conjecture.params_from_r((2, 1, 0), 1)
    conjecture.check_conjecture_sizes(params, (3, 6, 5))
    (dec,) = builds
    # states of different sizes may be equal tuples, so a step is told by
    # the move table of its size
    level_of = {id(moves): k for k, moves in enumerate(dec.moves)}
    below = [(k, state) for k, level in enumerate(dec.paths[:-1]) for state in level]
    assert len(dec.paths) == 7 and len(level_of) == 6
    expanded = [(level_of[table], state) for table, state in steps]
    assert len(expanded) == len(set(expanded)) == len(below)
    assert set(expanded) == set(below)
    dec.cells
    expanded = [(level_of[table], state) for table, state in steps]
    assert Counter(expanded) == Counter(below * 2)
    assert [f.name for f in dataclasses.fields(jm.CellDecomposition)] == [
        "values",
        "moves",
        "paths",
        "d",
    ]


def test_equal_characters_share_one_object():
    dec = jm_cellular_characters(P_GAP1, 6)
    cells = dec.cells
    # one ids tuple per final state, the state itself, reused by its cells
    objects = {id(ids) for _, ids in cells}
    assert len(objects) == len(dec.paths[-1]) == len({ids for _, ids in cells})
    assert objects == {id(state) for state in dec.paths[-1]}
    assert len(objects) < len(cells)


@st.composite
def params_up_to_d3_and_size(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.lists(thirds_and_halves, min_size=d, max_size=d))
    params = CMParams(d, draw(thirds_and_halves), tuple(k))
    return params, draw(st.integers(min_value=3, max_value=5))


@settings(max_examples=20, deadline=None)
@given(params_up_to_d3_and_size())
def test_character_counts_match_per_tableau_oracle(point):
    params, n = point
    expected = Counter(cs for _, cs in jm_cells_by_tableaux(params, n).cells)
    counts = jm_cellular_characters(params, n).character_counts()
    shapes = enumerate_dpartitions(params.d, n)
    rendered = {CharacterSum.from_ids(shapes, ids): m for ids, m in counts.items()}
    assert rendered == expected
    assert list(rendered) == sorted(expected, key=CharacterSum.sort_key)


# One build for n serves every size k <= n: level k of its graph is the graph
# a build for k makes, with the same path counts and the same order.
ONE_PASS_POINTS = [((1, 1, 0), 8), ((2, 0), 8), ((0, 0, 0, 0), 6)]


def _assert_levels_match_builds(params, n):
    dec = jm_cellular_characters(params, n)
    for k in range(n + 1):
        expected = jm_cellular_characters(params, k).character_counts()
        assert list(dec.character_counts(k).items()) == list(expected.items())
    assert dec.character_counts() == dec.character_counts(n)
    for k in (-1, n + 1):
        with pytest.raises(ValueError, match=f"size {k} is not in 0..{n}"):
            dec.character_counts(k)


@pytest.mark.parametrize("r, n", ONE_PASS_POINTS)
def test_levels_of_one_build_match_builds_per_size(r, n):
    _assert_levels_match_builds(CMParams.from_ksharp(len(r), 1, [-x for x in r]), n)


@settings(max_examples=20, deadline=None)
@given(params_up_to_d3_and_size())
def test_levels_of_one_build_match_builds_per_size_random(point):
    _assert_levels_match_builds(*point)


def _params():
    return CMParams.from_ksharp(3, Fraction(-1, 2), (1, Fraction(1, 3), 0))


def test_filled_eigenvalue_table_keeps_value_semantics():
    filled = _params()
    jm_cellular_characters(filled, 3)
    fresh = _params()
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert [f.name for f in dataclasses.fields(filled)] == ["d", "c0", "k"]
    assert dataclasses.asdict(filled) == dataclasses.asdict(fresh)
    assert pickle.dumps(filled) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(filled))
    assert back == fresh and hash(back) == hash(fresh)


def test_scaled_params_build_their_own_table():
    params = _params()
    boxes = [
        BoxCoord(row, col, comp)
        for comp in range(1, params.d + 1)
        for row in range(1, 4)
        for col in range(1, 4)
    ]
    base = [jm_eigenvalue(params, box) for box in boxes]
    factor = Fraction(-3, 2)
    assert [jm_eigenvalue(scaled(params, factor), box) for box in boxes] == [factor * x for x in base]
    assert [jm_eigenvalue(params, box) for box in boxes] == base
