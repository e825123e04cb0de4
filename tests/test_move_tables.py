"""Move tables and sublattice masks cached on GridMap, checked against
the supercover walk they replace (grid.successors_at_scale) and the
shifted-copy builder (oracles.shifted_move_table), plus the grid's
ownership of its occupancy array."""

import copy
import math
import pickle

import numpy as np
import pytest

from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError

import oracles

SCALES = (1, 3, 7, 9, 21, 27)

# (extents, density, seed): includes maps narrower than most k along
# some axis, dense maps, and non-cubic 3D extents to catch axis mix-ups
MAPS = (
    ((20, 17), 0.30, 1),
    ((5, 40), 0.10, 2),
    ((3, 3), 0.20, 3),
    ((30, 30), 0.05, 6),
    ((9, 8, 7), 0.25, 4),
    ((12, 5, 3), 0.20, 5),
    ((16, 16, 16), 0.10, 7),
)


def decoded(table, sid):
    return [(sid + table.offsets[b], table.costs[b]) for b in G.mask_bits(table.masks[sid])]


@pytest.mark.parametrize("extents,density,seed", MAPS)
def test_table_matches_successors_at_scale(extents, density, seed):
    grid = syn.random_grid(extents, density, seed)
    for k in SCALES:
        table = grid.move_table(k)
        assert table.k == k
        for sid in range(grid.size):
            cell = grid.cell_of(sid)
            if not grid.is_free(cell):
                assert table.masks[sid] == 0
                continue
            want = [(grid.flat_index(s), c) for s, c in G.successors_at_scale(cell, k, grid)]
            assert decoded(table, sid) == want, (cell, k)


@pytest.mark.parametrize(
    "extents,density,seed",
    MAPS + (((1, 1), 0.0, 8), ((1, 30), 0.1, 9), ((24, 1, 24), 0.2, 10),
            ((1, 1, 1), 0.0, 11), ((24, 24, 24), 0.25, 12), ((40, 2), 0.0, 13)),
)
def test_table_matches_shifted_builder(extents, density, seed):
    # byte-equal to the builder the slice-based one replaced, including
    # extents of 1 and maps narrower than k along some axis
    grid = syn.random_grid(extents, density, seed)
    unit = oracles.shifted_move_table(grid, 1, None)
    for k in SCALES:
        want = unit if k == 1 else oracles.shifted_move_table(grid, k, unit)
        got = grid.move_table(k)
        assert bytes(got.masks) == bytes(want.masks), k
        assert got.masks.format == want.masks.format and got.masks.shape == want.masks.shape
        assert got.offsets == want.offsets and got.costs == want.costs


def test_table_dtypes_and_directions():
    g2 = G.GridMap.empty((4, 4))
    g3 = G.GridMap.empty((3, 3, 3))
    assert g2.move_table(1).masks.format == "B"
    assert np.frombuffer(g3.move_table(1).masks, np.uint32).dtype == np.uint32
    assert len(G.directions(2)) == 8 and len(G.directions(3)) == 26
    # the interior cell of a free 3x3x3 block has all 26 unit moves
    assert g3.move_table(1).masks[13] == (1 << 26) - 1
    assert g2.move_table(1).masks[g2.flat_index((1, 1))] == 0xFF


def test_tables_are_cached_per_scale():
    grid = syn.random_grid((16, 16), 0.2, seed=1)
    assert grid.move_table(3) is grid.move_table(3)
    assert grid.move_table(3) is not grid.move_table(5)
    assert grid.space_masks((1, 3, 5)) is grid.space_masks([1, 3, 5])
    for bad in (0, 2, -1):
        with pytest.raises(InvalidProblemError):
            grid.move_table(bad)
        with pytest.raises(InvalidProblemError):
            grid.space_masks((1, bad))


@pytest.mark.parametrize("extents", [(22, 17), (10, 12, 9)])
def test_space_masks_match_get_space_indices(extents):
    grid = G.GridMap.empty(extents)
    lad = G.ResolutionLadder((1, 3, 5, 9))
    masks = grid.space_masks(lad.multipliers)
    for sid in range(grid.size):
        cell = grid.cell_of(sid)
        assert list(G.mask_bits(masks[sid])) == G.get_space_indices(cell, lad)


def test_space_masks_long_ladder():
    # more levels than a uint64 holds still decode correctly
    grid = G.GridMap.empty((3, 3))
    masks = grid.space_masks(tuple(range(1, 140, 2)))
    assert list(G.mask_bits(masks[grid.flat_index((1, 1))])) == [0, 1]
    assert list(G.mask_bits(masks[grid.flat_index((0, 0))])) == [0]


def test_mask_bits():
    for m in (0, 1, 5, 511, 512, 0x3FFFFFF, 1 << 26 | 3, 1 << 40 | 1 << 9):
        assert G.mask_bits(m) == tuple(b for b in range(64) if m >> b & 1)


# Two 3D shapes: x is the shortest axis in one and the longest in the other,
# so the flat id's x/y/z decoding is checked both ways round.
@pytest.mark.parametrize("extents,kind", [((17, 11), "octile"), ((3, 8, 11), "euclidean"),
                                          ((7, 6, 5), "euclidean")])
def test_flat_heuristic_bitwise_equal(extents, kind):
    grid = G.GridMap.empty(extents)
    goal = grid.cell_of(grid.size // 3)
    h = G.flat_heuristic(grid, goal)
    for sid in range(grid.size):
        assert h(sid) == G.heuristic(grid.cell_of(sid), goal, kind)


# ------------------------------------------------------- grid ownership


def test_grid_owns_read_only_copy():
    blocked = np.zeros((10, 10), bool)
    grid = G.GridMap((10, 10), blocked)
    assert not np.shares_memory(grid.blocked, blocked)
    with pytest.raises(ValueError):
        grid.blocked[0, 0] = True
    with pytest.raises(ValueError):
        grid.flat_blocked[0] = True


def test_mutating_source_changes_no_plan():
    blocked = np.zeros((24, 24), bool)
    grid = G.GridMap((24, 24), blocked)
    prob = S.Problem(grid, (1, 1), (22, 22), ladder=[1, 3])
    before = S.plan(prob, log_expansions=True)  # builds and caches the tables
    blocked[:, 12] = True  # would cut the map in two
    after = S.plan(prob, log_expansions=True)
    assert after.status == S.STATUS_SOLVED
    assert after.path == before.path and after.cost == before.cost
    assert after.expansion_log == before.expansion_log
    assert not grid.blocked.any()


def test_pickle_drops_cache():
    # pickling and both copies go through GridMap.__reduce__
    grid = syn.random_grid((12, 12), 0.2, seed=3)
    table = grid.move_table(3)
    res_a = S.plan(S.Problem(grid, (1, 1), (10, 10), ladder=[1, 3]))
    for clone_of in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        clone = clone_of(grid)
        assert type(clone) is G.GridMap and clone.extents == grid.extents
        assert clone._cache == {}
        assert np.array_equal(clone.blocked, grid.blocked)
        assert not clone.blocked.flags.writeable
        assert bytes(clone.move_table(3).masks) == bytes(table.masks)
        res_b = S.plan(S.Problem(clone, (1, 1), (10, 10), ladder=[1, 3]))
        assert res_a.cost == res_b.cost or (math.isinf(res_a.cost) and math.isinf(res_b.cost))
        assert res_a.path == res_b.path
