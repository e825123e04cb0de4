"""Move tables and sublattice masks cached on GridMap, checked against
the supercover segment walk (oracles.walk_successors_2d/3d), an
encoding of the move rule independent of the box rule that builds the
tables, and against the builder that kernels.unit_moves and the
sublattice builder replaced (oracles.full_move_table), plus the grid's
ownership of its occupancy array.  successors_at_scale, which checks
the box rule cell by cell, is held to the same walk.  A coarse table
holds moves on its sublattice only, so plans over it are checked
against plans over the tables of the builder that filled every cell.
Each table's decoded-move cache (MoveTable.moves) is checked entry by
entry against the table's mask bits, and for being one object per
table that every plan on the map fills and that stays bounded."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrastar import baselines as B
from mrastar import bench as BE
from mrastar import grid as G
from mrastar import kernels
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError
from mrastar.maps_io import gen_scenarios

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


def on_sublattice(grid, table):
    """table's masks with every entry off its k-sublattice (see
    coincides) set to 0."""
    masks = np.frombuffer(table.masks, np.uint8 if grid.dim == 2 else np.uint32).copy()
    off = [not G.coincides(grid.cell_of(sid), table.k) for sid in range(grid.size)]
    masks[off] = 0
    return masks


def walk(grid, cell, k):
    """oracles' segment walk from cell at scale k: (flat id, cost) pairs."""
    run = oracles.walk_successors_2d if grid.dim == 2 else oracles.walk_successors_3d
    moves = run(grid.flat_blocked, *grid.extents, *cell, k)
    return [(v, k * kernels.STEP[m]) for v, m in moves]


@pytest.mark.parametrize("extents,density,seed", MAPS)
def test_table_matches_successors_at_scale(extents, density, seed):
    # successors_at_scale equals the segment walk on every cell (blocked
    # ones included) at every scale, and so does the table on every cell
    # of its k-sublattice; off the sublattice a k > 1 table holds 0
    grid = syn.random_grid(extents, density, seed)
    for k in SCALES:
        table = grid.move_table(k)
        assert table.k == k
        for sid in range(grid.size):
            cell = grid.cell_of(sid)
            want = walk(grid, cell, k)
            got = [(grid.flat_index(s), c) for s, c in G.successors_at_scale(cell, k, grid)]
            assert got == want, (cell, k)
            if G.coincides(cell, k):
                assert decoded(table, sid) == want, (cell, k)
            else:
                assert table.masks[sid] == 0, (cell, k)


@pytest.mark.parametrize(
    "extents,density,seed",
    MAPS + (((1, 1), 0.0, 8), ((1, 30), 0.1, 9), ((24, 1, 24), 0.2, 10),
            ((1, 1, 1), 0.0, 11), ((2, 2), 0.0, 14), ((2, 7), 0.3, 15),
            ((2, 1, 2), 0.0, 16), ((2, 9, 5), 0.2, 17), ((24, 24, 24), 0.25, 12),
            ((40, 2), 0.0, 13), ((1, 9), 0.2, 2), ((2, 7), 0.3, 4), ((80, 72), 0.25, 6),
            ((6, 5), 1.0, 7), ((1, 2, 1), 0.1, 10), ((2, 9, 5), 0.2, 11), ((12, 5, 3), 0.2, 12),
            ((24, 1, 24), 0.2, 13), ((24, 24, 24), 0.25, 14), ((20, 17), 0.3, 5)),
)
def test_unit_table_matches_replaced_builder(extents, density, seed):
    # every table against the builder that kernels.unit_moves and the
    # sublattice builder replaced (oracles.full_move_table, whose k > 1
    # tables hold moves at every cell): masks byte for byte, with the
    # entries off the k-sublattice zeroed for k > 1, the same format and
    # shape, offsets and float.hex costs, at every scale.  The maps
    # include extents of 1 and 2, maps narrower than k along some axis,
    # free and fully blocked maps.
    grid = syn.random_grid(extents, density, seed)
    unit = oracles.full_move_table(grid, 1, None)
    for k in SCALES:
        want = unit if k == 1 else oracles.full_move_table(grid, k, unit)
        got = grid.move_table(k)
        assert got.k == k
        assert got.masks.format == want.masks.format and got.masks.shape == want.masks.shape
        assert bytes(got.masks) == bytes(on_sublattice(grid, want)), k
        assert got.offsets == want.offsets, k
        assert [c.hex() for c in got.costs] == [c.hex() for c in want.costs], k


@settings(max_examples=200)
@given(
    extents=st.one_of(
        st.lists(st.integers(1, 40), min_size=2, max_size=2),
        st.lists(st.integers(1, 9), min_size=3, max_size=3),
    ),
    density=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_unit_moves_match_replaced_builder_property(extents, density, seed):
    # kernels.unit_moves, one read per neighbour offset, against the
    # builder that ANDed every corner of each direction's box
    # (oracles.full_move_table at k = 1): masks byte for byte, format,
    # offsets and float.hex costs, on free, fully blocked and random maps
    grid = syn.random_grid(tuple(extents), density, seed)
    masks, offsets, costs = kernels.unit_moves(grid.blocked)
    want = oracles.full_move_table(grid, 1, None)
    assert masks.format == want.masks.format and len(masks) == grid.size
    assert bytes(masks) == bytes(want.masks)
    assert offsets == want.offsets
    assert [c.hex() for c in costs] == [c.hex() for c in want.costs]


# ------------------------------------- plans over the full coarse tables

PLAN_MAPS = (
    ((24, 24), 0.15, 1),
    ((20, 26), 0.25, 2),
    ((10, 10, 10), 0.10, 3),
    ((9, 11, 8), 0.15, 4),
)
# nested, non-nested, and with a scale wider than every map
PLAN_LADDERS = ((1, 3), (1, 3, 5), (1, 5, 7), (1, 3, 41), (1, 9, 27))
PLAN_CONFIGS = (
    S.PlannerConfig(w1=3.0, w2=3.0, policy="round_robin"),
    S.PlannerConfig(w1=3.0, w2=2.0, policy="dts", seed=5),
    S.PlannerConfig(w1=1.0, w2=1.0, policy="dts", seed=1),
)


def _plan_fields(grid, algo, start, goal, ladder, config):
    """Every deterministic PlanResult field, or the refusal message."""
    try:
        res = BE.run_algo(algo, grid, start, goal, ladder, config, log_expansions=True)
    except InvalidProblemError as exc:
        return ("invalid", str(exc))
    return _fields(res)


def _union_fields(grid, algo, start, goal, ladder, config):
    """_plan_fields of wa-mr run by the old search core
    (oracles.FlatSearch), which picks each state's tables by its space
    mask (table_masks), as wa_union did before its one queue read every
    level's table at every state."""
    assert algo == "wa-mr"
    try:
        start, goal, ladder = S.validate_query(grid, start, goal, ladder, w=config.w1,
                                               timeout=config.timeout)
    except InvalidProblemError as exc:
        return ("invalid", str(exc))
    scales = ladder.multipliers
    old = oracles.FlatSearch(grid, start, goal, scales, (config.w1,), bound=config.w1,
                             timeout=config.timeout, table_masks=grid.space_masks(scales))
    return _fields(old.run(log_expansions=True))


def _fields(res):
    out = dataclasses.asdict(res)
    del out["wall_time"]
    out["cost"] = float(out["cost"]).hex()
    return out


def _coarse_pair(grid, k):
    """A free k-sublattice cell that has a scale-k move and the last cell
    a breadth-first walk of scale-k moves (successors_at_scale) reaches
    from it, or None when no cell has a scale-k move."""
    for sid in range(grid.size):
        start = grid.cell_of(sid)
        if not G.coincides(start, k) or not G.successors_at_scale(start, k, grid):
            continue
        seen, frontier = {start}, [start]
        while frontier:
            last, reached = frontier[-1], []
            for cell in frontier:
                for nxt, _ in G.successors_at_scale(cell, k, grid):
                    if nxt not in seen:
                        seen.add(nxt)
                        reached.append(nxt)
            frontier = reached
        return start, last
    return None


@pytest.mark.parametrize("extents,density,seed", PLAN_MAPS)
def test_plans_over_full_tables_equal_plans_over_sublattice_tables(monkeypatch, extents,
                                                                    density, seed):
    # the same queries on a second grid whose coarse tables come from the
    # builder that filled every cell (oracles.full_move_table).  wa-mr
    # reads every table at every state, which only a table that holds
    # no moves off its sublattice allows, so on the full tables it runs
    # as the search that picks a state's tables by its space mask
    grid = syn.random_grid(extents, density, seed)
    full = G.GridMap(grid.extents, grid.blocked)
    scales = sorted({k for lad in PLAN_LADDERS for k in lad})
    with monkeypatch.context() as m:
        m.setattr(G, "_build_move_table", oracles.full_move_table)
        for k in scales:
            full.move_table(k)
    assert any(bytes(full.move_table(k).masks) != bytes(grid.move_table(k).masks)
               for k in scales)
    pairs = [(sc.start, sc.goal) for sc in gen_scenarios(grid, 3, seed)]
    # pairs joined by coarse moves, so that wa-low plans
    pairs += filter(None, (_coarse_pair(grid, k) for k in (3, 5, 7)))
    solved = set()
    for start, goal in pairs:
        for lad in map(G.ResolutionLadder, PLAN_LADDERS):
            for config in PLAN_CONFIGS:
                for algo in ("mra", "wa-low", "wa-mr"):
                    query = (algo, start, goal, lad, config)
                    want = (_union_fields if algo == "wa-mr" else _plan_fields)(full, *query)
                    assert _plan_fields(grid, *query) == want, query
                    if isinstance(want, dict) and want["status"] == S.STATUS_SOLVED:
                        solved.add(algo)
    assert solved == {"mra", "wa-low", "wa-mr"}


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


def test_move_table_refuses_a_bad_scale_whatever_is_cached():
    # a float or a bool compares equal to an int cache key: once the k = 1
    # and 3 tables existed, these used to return them
    grid = syn.random_grid((16, 16), 0.2, seed=1)
    for _ in range(2):  # on a fresh map, then with both tables cached
        for bad in (1.0, True, 3.0):
            with pytest.raises(InvalidProblemError):
                grid.move_table(bad)
        grid.move_table(3)
    assert grid.move_table(np.int64(3)) is grid.move_table(3)


@pytest.mark.parametrize("extents,seed", [((16, 16), 1), ((8, 7, 6), 2)])
def test_one_unit_move_build_per_map(monkeypatch, extents, seed):
    # a plan, then the oracle on the same fresh map: both search the one
    # cached k = 1 table
    grid = syn.random_grid(extents, 0.2, seed)
    builds = []
    build = kernels.unit_moves
    monkeypatch.setattr(kernels, "unit_moves", lambda blocked: builds.append(1) or build(blocked))
    labels = G.fine_components(grid).ravel()
    main = np.flatnonzero(labels == np.bincount(labels[labels >= 0]).argmax())
    a, b, c = (grid.cell_of(int(v)) for v in (main[0], main[-1], main[len(main) // 2]))
    res = S.plan(S.Problem(grid, a, b, ladder=[1, 3]))
    assert res.status == S.STATUS_SOLVED and len(builds) == 1
    assert math.isfinite(B.dijkstra_optimal(grid, c, a))
    assert len(builds) == 1


# ------------------------------------------------ decoded-move cache

CACHE_MAPS = (
    ((1, 1), 0.0, 1), ((2, 2), 0.0, 2), ((2, 9), 0.2, 3), ((20, 17), 0.3, 4),
    ((1, 1, 1), 0.0, 5), ((2, 1, 2), 0.0, 6), ((2, 9, 5), 0.2, 7), ((9, 8, 7), 0.25, 8),
    ((24, 24, 24), 0.25, 9),
)


@pytest.mark.parametrize("extents,density,seed", CACHE_MAPS)
def test_decoded_moves_equal_the_mask_bits(extents, density, seed):
    # every entry, read for every mask value a table holds (and, in 2D,
    # for all 256), is its set bits' (offset, cost) pairs in ascending
    # bit order, built from the table's one tuple of pairs
    grid = syn.random_grid(extents, density, seed)
    for k in SCALES:
        table = grid.move_table(k)
        values = set(table.masks) | (set(range(256)) if grid.dim == 2 else set())
        assert table.moves.pairs == tuple(zip(table.offsets, table.costs))
        for m in sorted(values):
            got = table.moves[m]
            assert got == tuple((table.offsets[b], table.costs[b]) for b in G.mask_bits(m))
            assert all(p is table.moves.pairs[b] for p, b in zip(got, G.mask_bits(m)))
        assert set(table.moves) == values


def _main_cells(grid, n):
    """n cells of the map's largest component, spread over it."""
    labels = G.fine_components(grid).ravel()
    main = np.flatnonzero(labels == np.bincount(labels[labels >= 0]).argmax())
    return [grid.cell_of(int(v)) for v in main[:: max(1, len(main) // n)][:n]]


@pytest.mark.parametrize("extents,ladder", [((30, 30), (1, 3, 5)), ((10, 9, 8), (1, 3))])
def test_decoded_moves_are_one_cache_per_table(monkeypatch, extents, ladder):
    # every plan on a map, of every algo and query, and every oracle call
    # fills the same cache objects, one per table, the oracle's misses
    # landing in the k = 1 table's; no call builds a cache of its own,
    # and repeating the calls adds no entry
    grid = syn.random_grid(extents, 0.2, 5)
    lad = G.ResolutionLadder(ladder)
    caches = {k: grid.move_table(k).moves for k in ladder}
    filled, built = [], []
    missing, init = kernels.DecodedMoves.__missing__, kernels.DecodedMoves.__init__
    monkeypatch.setattr(kernels.DecodedMoves, "__missing__",
                        lambda self, m: filled.append(self) or missing(self, m))
    monkeypatch.setattr(kernels.DecodedMoves, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    cells = _main_cells(grid, 4)
    queries = [(a, b) for a in cells for b in cells if a != b]

    def run_oracles():
        for start, goal in queries:
            assert math.isfinite(B.dijkstra_optimal(grid, start, goal))

    def run_all():
        for start, goal in queries:
            for algo in ("mra", "wa-high", "wa-mr", "astar"):
                res = BE.run_algo(algo, grid, start, goal, lad, S.PlannerConfig())
                assert res.status == S.STATUS_SOLVED
        run_oracles()

    run_oracles()
    assert filled and {id(c) for c in filled} == {id(caches[1])}
    run_all()
    assert {id(c) for c in filled} <= {id(c) for c in caches.values()}
    assert all(grid.move_table(k).moves is caches[k] for k in ladder)
    assert built == []
    sizes = {k: len(c) for k, c in caches.items()}
    del filled[:]
    run_all()
    assert filled == [] and {k: len(c) for k, c in caches.items()} == sizes


def test_decoded_moves_stay_bounded():
    # a 2D cache holds at most one entry per uint8 mask value, and a 3D
    # cache one per distinct mask value read, however many queries run
    for extents in ((40, 40), (12, 12, 12)):
        grid = syn.random_grid(extents, 0.15, 3)
        cells = _main_cells(grid, 8)
        for start in cells:
            for goal in cells:
                S.plan(S.Problem(grid, start, goal, ladder=(1, 3)))
        for k in (1, 3):
            table = grid.move_table(k)
            assert set(table.moves) <= set(table.masks)
            assert grid.dim == 3 or len(table.moves) <= 256
        assert len(grid.move_table(1).moves) > 1


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


# kind names the distance the map's dimension picks (oracles.HEURISTICS).
# Every h entry of a search is heuristic's float:
# tests/test_search.py::test_every_h_entry_is_flat_heuristic.
@pytest.mark.parametrize("extents,kind", [((17, 11), "octile"), ((3, 8, 11), "euclidean"),
                                          ((7, 6, 5), "euclidean")])
def test_flat_heuristic_bitwise_equal(extents, kind):
    grid = G.GridMap.empty(extents)
    goal = grid.cell_of(grid.size // 3)
    for sid in range(grid.size):
        cell = grid.cell_of(sid)
        assert G.heuristic(cell, goal) == oracles.HEURISTICS[kind](cell, goal)


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
