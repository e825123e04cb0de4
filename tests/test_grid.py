"""Grid-layer tests: maps, ladders, coincidence, moves, costs, heuristics."""

import itertools
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrastar import grid as G
from mrastar.errors import InvalidProblemError, SearchCorruptionError
from mrastar.kernels import SQRT2, STEP

import oracles


def random_map(rng, extents, density):
    shape = tuple(reversed(extents))
    return G.GridMap(extents, rng.random(shape) < density)


# ---------------------------------------------------------------- GridMap


def test_gridmap_validation():
    with pytest.raises(ValueError):
        G.GridMap((4,), np.zeros(4, bool))
    with pytest.raises(ValueError):
        G.GridMap((2, 2, 2, 2), np.zeros((2, 2, 2, 2), bool))
    with pytest.raises(ValueError):
        G.GridMap((0, 3), np.zeros((3, 0), bool))
    # blocked must be shaped (H, W), i.e. reversed extents
    with pytest.raises(ValueError):
        G.GridMap((4, 3), np.zeros((4, 3), bool))
    g = G.GridMap((4, 3), np.zeros((3, 4), bool))
    assert g.dim == 2 and g.size == 12


def test_gridmap_queries():
    g = G.GridMap.empty((5, 4))
    assert g.in_bounds((4, 3)) and not g.in_bounds((5, 3)) and not g.in_bounds((0, -1))
    assert not g.in_bounds((1, 1, 1))
    blocked = np.zeros((4, 5), bool)
    blocked[2, 3] = True  # cell (3,2)
    g = G.GridMap((5, 4), blocked)
    assert g.is_free((3, 1)) and not g.is_free((3, 2)) and not g.is_free((9, 9))
    # a wrong arity is no error, just not a cell of this map
    assert not g.is_free((1,)) and g.is_free((np.int64(2), 2)) and g.is_free([2, 2])


@pytest.mark.parametrize("extents", [(2.5, 3), (3, 2.0), (True, 3), ("3", 3), (2, 2, 1.5)], ids=repr)
def test_gridmap_refuses_non_integer_extents(extents):
    # (2.5, 3) used to build a 2x3 map: int() truncated it
    with pytest.raises(ValueError, match="extents must be integers"):
        G.GridMap.empty(extents)
    shape = tuple(reversed([int(e) for e in extents]))
    with pytest.raises(ValueError, match="extents must be integers"):
        G.GridMap(extents, np.zeros(shape, bool))


def test_gridmap_accepts_numpy_integer_extents():
    g = G.GridMap.empty((np.int64(5), np.int32(4)))
    assert g.extents == (5, 4) and all(type(e) is int for e in g.extents)
    assert G.GridMap(np.array([3, 2, 2]), np.zeros((2, 2, 3), bool)).extents == (3, 2, 2)


@pytest.mark.parametrize("cell", [(0.5, 1), (2.0, 2), (True, 1), ("a", 1), (1, 1.0), 3, None], ids=repr)
def test_gridmap_queries_refuse_non_integer_coordinates(cell):
    # on a 5x5 map, (0.5, 1) and (2.0, 2) used to escape from is_free as
    # numpy's IndexError, (True, 1) as an ambiguous-truth ValueError and
    # ("a", 1) from in_bounds as TypeError
    g = G.GridMap.empty((5, 5))
    for query in (g.in_bounds, g.is_free):
        with pytest.raises(InvalidProblemError):
            query(cell)


@pytest.mark.parametrize("extents", [(5, 4), (4, 3, 6)])
def test_flat_index_roundtrip(extents):
    g = G.GridMap.empty(extents)
    seen = set()
    for flat in range(g.size):
        cell = g.cell_of(flat)
        assert g.in_bounds(cell)
        assert g.flat_index(cell) == flat
        seen.add(cell)
    assert len(seen) == g.size


def test_flat_index_matches_blocked_layout():
    rng = np.random.default_rng(7)
    g = random_map(rng, (6, 5, 4), 0.4)
    flat = g.flat_blocked
    for _ in range(50):
        cell = tuple(int(rng.integers(0, e)) for e in g.extents)
        assert bool(flat[g.flat_index(cell)]) == (not g.is_free(cell))


# ---------------------------------------------------------- ResolutionLadder


def test_ladder_accepts_odd_increasing():
    for mults in [(1,), (1, 3), (1, 7, 21), (1, 9, 27)]:
        lad = G.ResolutionLadder(mults)
        assert len(lad) == len(mults) and lad[len(mults) - 1] == mults[-1]


@pytest.mark.parametrize(
    "mults",
    [(), (3,), (7, 21), (1, 4), (1, 2, 3), (1, 7, 7), (1, 21, 7), (1, -3)],
)
def test_ladder_rejects_bad_multipliers(mults):
    with pytest.raises(ValueError):
        G.ResolutionLadder(mults)


# ------------------------------------------------------ coincidence/spaces


def test_coincides_center_rule():
    # k-space centers are at coords congruent to (k-1)/2 mod k
    assert G.coincides((3, 3), 7) and G.coincides((10, 24), 7)
    assert not G.coincides((4, 3), 7) and not G.coincides((0, 0), 7)
    assert G.coincides((10, 10), 21) and not G.coincides((3, 3), 21)
    assert all(G.coincides((x, x % 5), 1) for x in range(5))


def test_get_space_indices_examples():
    lad = G.ResolutionLadder((1, 7, 21))
    assert G.get_space_indices((3, 3), lad) == [0, 1]
    assert G.get_space_indices((10, 10), lad) == [0, 1, 2]
    assert G.get_space_indices((0, 0), lad) == [0]


def test_space_indices_sorted_and_anchor_universal():
    lad = G.ResolutionLadder((1, 9, 27))
    rng = np.random.default_rng(3)
    for _ in range(200):
        cell = tuple(int(c) for c in rng.integers(0, 200, size=3))
        idx = G.get_space_indices(cell, lad)
        assert idx[0] == 0 and idx == sorted(idx)
        for i in idx:
            assert G.coincides(cell, lad[i])


# ------------------------------------------------------------- heuristics


def test_heuristic_values():
    # octile on 2D cells, euclidean on 3D ones
    assert math.isclose(G.heuristic((0, 0), (3, 4)), 3 * SQRT2 + 1)
    assert round(G.heuristic((0, 0), (3, 4)), 4) == 5.2426
    assert G.heuristic((1, 2, 3), (4, 6, 3)) == 5.0
    assert G.heuristic((9, 9), (9, 9)) == 0.0
    assert G.heuristic((9, 9, 9), (9, 9, 9)) == 0.0


def test_heuristic_domain_errors():
    # zip used to truncate the 3D cell: sqrt(2) for (0, 0) -> (1, 1, 1)
    with pytest.raises(InvalidProblemError):
        G.heuristic((0, 0), (1, 1, 1))
    with pytest.raises(InvalidProblemError):
        G.heuristic((1, 2, 3), (4, 5))
    with pytest.raises(TypeError):
        G.heuristic((0, 0), (1, 1), "euclidean")  # the kind argument is gone


# kind names the distance the cells' dimension picks (oracles.HEURISTICS)
@pytest.mark.parametrize(
    "extents,density,kind,seed",
    [
        ((24, 20), 0.25, "octile", 11),
        ((13, 31), 0.30, "octile", 13),
        ((11, 9, 8), 0.20, "euclidean", 12),
    ],
)
def test_heuristic_admissible_and_consistent(extents, density, kind, seed):
    rng = np.random.default_rng(seed)
    g = random_map(rng, extents, density)
    free = [c for c in oracles.grid_cells(g) if g.is_free(c)]
    goal = free[len(free) // 2]
    dist = oracles.reference_distances(g, goal)
    for s in free:
        h = G.heuristic(s, goal)
        assert h == oracles.HEURISTICS[kind](s, goal)
        d = dist[g.flat_index(s)]
        if math.isfinite(d):
            assert h <= d + 1e-9
        for t, c in G.successors_at_scale(s, 1, g):
            assert h <= c + G.heuristic(t, goal) + 1e-9


# ------------------------------------------------------------- successors


def test_fine_successors_interior():
    g = G.GridMap.empty((9, 9))
    succ = G.successors_at_scale((4, 4), 1, g)
    assert len(succ) == 8
    costs = sorted(c for _, c in succ)
    assert costs[:4] == [1.0] * 4 and all(c == SQRT2 for c in costs[4:])


def test_coarse_diagonal_cost_and_blocking():
    g = G.GridMap.empty((70, 70))
    cell = (31, 31)  # 31 mod 7 == 3, a k=7 center
    succ = dict(G.successors_at_scale(cell, 7, g))
    assert succ[(38, 38)] == 7 * SQRT2
    assert succ[(38, 31)] == 7.0
    assert len(succ) == 8
    # one blocked fine cell on the diagonal segment kills only that move
    blocked = g.blocked.copy()
    blocked[35, 35] = True
    g2 = G.GridMap((70, 70), blocked)
    succ2 = dict(G.successors_at_scale(cell, 7, g2))
    assert (38, 38) not in succ2 and (38, 31) in succ2 and len(succ2) == 7


def test_successor_closure_on_sublattice():
    lad = G.ResolutionLadder((1, 7, 21))
    g = G.GridMap.empty((106, 106))
    cell = (31, 31)  # on both the 7- and 21-sublattices
    for k in lad.multipliers:
        for t, cost in G.successors_at_scale(cell, k, g):
            assert G.coincides(t, k)
            assert cost > 0.0


def test_union_action_count_3d():
    # 26 moves per level and disjoint magnitudes: 78 distinct union moves
    lad = G.ResolutionLadder((1, 9, 27))
    g = G.GridMap.empty((81, 81, 81))
    cell = (40, 40, 40)
    union = set()
    for k in lad.multipliers:
        succ = G.successors_at_scale(cell, k, g)
        assert len(succ) == 26
        union.update(t for t, _ in succ)
    assert len(union) == 78


# ------------------------------------------------------------- edge_valid


def walk_free(a, b, grid):
    """oracles' segment walk on the segment between the centers of a and b."""
    if grid.dim == 2:
        return oracles.walk_free_2d(grid.flat_blocked, grid.extents[0], *a, *b)
    return oracles.walk_free_3d(grid.flat_blocked, *grid.extents[:2], *a, *b)


def checked_edge(a, b, grid):
    """edge_valid(a, b, grid), which must equal edge_valid(b, a, grid), or
    None when a->b is not a lattice move and edge_valid refuses it."""
    try:
        G.edge_decomposition(a, b)
    except ValueError:
        with pytest.raises(InvalidProblemError):
            G.edge_valid(a, b, grid)
        return None
    got = G.edge_valid(a, b, grid)
    assert got is G.edge_valid(b, a, grid)
    return got


def test_edge_valid_degenerate_and_corner():
    g = G.GridMap.empty((4, 4))
    assert G.edge_valid((0, 0), (3, 3), g) and G.edge_valid((3, 0), (1, 0), g)
    blocked = np.zeros((4, 4), bool)
    blocked[2, 2] = True
    gb = G.GridMap((4, 4), blocked)
    assert not G.edge_valid((2, 2), (3, 2), gb) and not G.edge_valid((3, 2), (2, 2), gb)
    # both flanks of the (1,1)->(2,2) corner blocked: no corner cutting
    blocked = np.zeros((4, 4), bool)
    blocked[1, 2] = True  # (2,1)
    blocked[2, 1] = True  # (1,2)
    gc = G.GridMap((4, 4), blocked)
    assert not G.edge_valid((1, 1), (2, 2), gc)
    # refused rather than guessed: an endpoint out of bounds or with a
    # non-integer coordinate (0.5 used to escape as IndexError, True was
    # read as 1 and "a" raised TypeError), and a->b that is no lattice
    # move (both used to return True)
    for a, b in (((0, 0), (4, 0)), ((0.5, 1), (1, 1)), ((True, 1), (1, 1)),
                 (("a", 1), (1, 1)), ((0, 0), (3, 1)), ((2, 2), (2, 2))):
        with pytest.raises(InvalidProblemError):
            G.edge_valid(a, b, g)


def test_edge_valid_matches_exact_geometry_2d():
    # the segment walk decides any segment; edge_valid decides lattice
    # moves and refuses the rest
    rng = np.random.default_rng(21)
    for _ in range(12):
        g = random_map(rng, (16, 16), 0.3)
        for _ in range(60):
            a = tuple(int(c) for c in rng.integers(0, 16, size=2))
            b = tuple(int(c) for c in rng.integers(0, 16, size=2))
            want = oracles.edge_free_exact(a, b, g)
            assert walk_free(a, b, g) == want == walk_free(b, a, g)
            assert checked_edge(a, b, g) in (want, None)


def test_edge_valid_never_passes_sampled_obstacle():
    # dense point sampling can miss corner contacts but never invents one,
    # so a sampled hit must imply rejection
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(8):
        g = random_map(rng, (16, 16), 0.35)
        for _ in range(80):
            a = tuple(int(c) for c in rng.integers(0, 16, size=2))
            b = tuple(int(c) for c in rng.integers(0, 16, size=2))
            hit = any(not g.is_free(c) for c in oracles.sampled_cells(a, b))
            if hit:
                checked += 1
                assert not walk_free(a, b, g)
                assert not checked_edge(a, b, g)
    assert checked > 100


def test_unit_move_closed_form_matches_exact_oracle():
    # the fast unit-move rule used by the reference graph must agree with
    # the exact geometric oracle it shortcuts
    rng = np.random.default_rng(27)
    for extents, density in [((10, 9), 0.4), ((6, 6, 5), 0.3)]:
        g = random_map(rng, extents, density)
        for cell in oracles.grid_cells(g):
            if not g.is_free(cell):
                continue
            for mv in oracles._unit_moves(g.dim):
                nb = tuple(c + m for c, m in zip(cell, mv))
                if not g.is_free(nb):
                    continue
                assert oracles._unit_edge_free(cell, nb, mv, g) == (
                    oracles.edge_free_exact(cell, nb, g)
                )


def test_edge_valid_matches_exact_geometry_3d():
    rng = np.random.default_rng(23)
    for _ in range(6):
        g = random_map(rng, (9, 8, 7), 0.25)
        for _ in range(60):
            a = tuple(int(rng.integers(0, e)) for e in g.extents)
            b = tuple(int(rng.integers(0, e)) for e in g.extents)
            want = oracles.edge_free_exact(a, b, g)
            assert walk_free(a, b, g) == want == walk_free(b, a, g)
            assert checked_edge(a, b, g) in (want, None)


@settings(max_examples=300)
@given(
    extents=st.one_of(
        st.lists(st.integers(1, 12), min_size=2, max_size=2),
        st.lists(st.integers(1, 8), min_size=3, max_size=3),
    ),
    density=st.sampled_from((0.3, 0.15, 0.45)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    data=st.data(),
)
def test_edge_valid_matches_exact_geometry_on_lattice_moves(extents, density, seed, k, data):
    # every direction, lengths up to 5, maps as thin as one cell; a move
    # that leaves the map is refused
    g = random_map(np.random.default_rng(seed), tuple(extents), density)
    a = tuple(data.draw(st.integers(0, e - 1)) for e in extents)
    step = data.draw(st.sampled_from(G.directions(g.dim)))
    b = tuple(c + k * s for c, s in zip(a, step))
    if not g.in_bounds(b):
        with pytest.raises(InvalidProblemError):
            G.edge_valid(a, b, g)
        return
    assert checked_edge(a, b, g) == oracles.edge_free_exact(a, b, g)
    if k % 2:
        # successors_at_scale yields exactly the valid moves of scale k
        ends = [tuple(c + k * s for c, s in zip(a, d)) for d in G.directions(g.dim)]
        want = [t for t in ends if g.in_bounds(t) and G.edge_valid(a, t, g)]
        assert [t for t, _ in G.successors_at_scale(a, k, g)] == want


# ----------------------------------------------------------- costs/paths


def test_edge_decomposition():
    assert G.edge_decomposition((0, 0), (7, 7)) == (7, 2)
    assert G.edge_decomposition((1, 2, 3), (1, 2, 10)) == (7, 1)
    assert G.edge_decomposition((5, 5, 5), (14, 14, 14)) == (9, 3)
    with pytest.raises(ValueError):
        G.edge_decomposition((0, 0), (1, 2))
    with pytest.raises(ValueError):
        G.edge_decomposition((3, 3), (3, 3))
    with pytest.raises(ValueError):
        G.edge_decomposition((0, 0), (0, 0, 0))


def test_path_cost_canonical():
    assert G.path_cost([]) == 0.0
    assert G.path_cost([(4, 4)]) == 0.0
    assert G.path_cost([(0, 0), (1, 1), (1, 2)]) == (float(1) + 1 * SQRT2)
    # same multiset of edge shapes in a different order: bitwise equal
    a = G.path_cost([(0, 0), (1, 1), (2, 1), (9, 8)])
    b = G.path_cost([(0, 0), (1, 0), (8, 7), (9, 8)])
    assert a == b


def test_path_cost_matches_naive_sum():
    rng = np.random.default_rng(31)
    for _ in range(50):
        path = [(0, 0)]
        for _ in range(12):
            k = int(rng.choice([1, 3, 7]))
            d = tuple(int(v) * k for v in rng.integers(-1, 2, size=2))
            if d == (0, 0):
                d = (k, 0)
            path.append((path[-1][0] + d[0], path[-1][1] + d[1]))
        steps = (G.edge_decomposition(u, v) for u, v in zip(path, path[1:]))
        naive = sum(k * STEP[m] for k, m in steps)
        assert math.isclose(G.path_cost(path), naive, rel_tol=1e-12)


def _check_walk(g, path):
    # walk_chain over the predecessor map of path's flat ids, as a dict and
    # as a memoryview of int64 (-1 off the chain), against the cell list and
    # chain_cost it replaced: equal cells, float.hex-equal costs
    ids = [g.flat_index(c) for c in path]
    bp = dict(zip(ids[1:], ids))
    buf = array("q", [-1]) * g.size
    for v, u in bp.items():
        buf[v] = u
    want = oracles.chain_cost(g, ids)
    assert want.hex() == G.path_cost(path).hex()
    for pred in (bp, memoryview(buf)):
        cells, cost = G.walk_chain(g, pred, ids[0], ids[-1])
        assert cells == oracles.chain_cells(g, ids) == path
        assert cost.hex() == want.hex()


@settings(max_examples=250)
@given(
    extents=st.one_of(
        st.lists(st.integers(1, 40), min_size=2, max_size=2),
        st.lists(st.integers(1, 9), min_size=3, max_size=3),
    ),
    origin=st.lists(st.integers(0, 2**16), min_size=3, max_size=3),
    steps=st.lists(st.integers(0, 2**32), max_size=39),
)
def test_chain_cost_hex_equal_to_path_cost(extents, origin, steps):
    # random predecessor chains of 1-40 distinct cells, each step a lattice
    # move of a scale up to the longest extent - 1 that stays on the map
    g = G.GridMap.empty(tuple(extents))
    path = [tuple(o % n for o, n in zip(origin, extents))]
    for pick in steps:
        cell = path[-1]
        scales = [k for k in range(1, max(extents))
                  if any(c + k < n or c >= k for c, n in zip(cell, extents))]
        if not scales:  # a one-cell map
            break
        k = scales[pick % len(scales)]
        axes = [[s for s in (0, -1, 1) if 0 <= c + k * s < n] for c, n in zip(cell, extents)]
        moves = [step for step in itertools.product(*axes) if any(step)]
        step = moves[pick // len(scales) % len(moves)]
        nxt = tuple(c + k * s for c, s in zip(cell, step))
        if nxt not in path:  # a chain visits a cell once
            path.append(nxt)
    _check_walk(g, path)
    _check_walk(g, path[:1])
    assert G.walk_chain(g, {}, g.flat_index(path[0]), g.flat_index(path[0]))[1].hex() == (0.0).hex()


@pytest.mark.parametrize("extents,path", [
    # on a map of width w, the move (w - 1, 0) and the unit diagonal
    # (-1, 1) share the flat offset w - 1, at costs w - 1 and sqrt(2)
    ((6, 3), [(0, 0), (5, 0), (4, 1), (4, 2), (5, 1)]),
    ((2, 2), [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ((4, 3, 2), [(0, 0, 0), (3, 0, 0), (2, 1, 0), (2, 1, 1), (3, 0, 1), (0, 0, 1)]),
    ((9, 9), [(0, 0), (8, 8), (0, 8), (8, 0)]),
], ids=["2d-w6-k5", "2d-w2-k1", "3d-w4-k3", "2d-k8"])
def test_walk_chain_reads_moves_a_flat_offset_cannot_tell_apart(extents, path):
    _check_walk(G.GridMap.empty(extents), path)


def test_walk_chain_refuses_a_broken_chain():
    g = G.GridMap.empty((5, 5))
    with pytest.raises(SearchCorruptionError):
        G.walk_chain(g, {12: 6, 6: 12}, 0, 12)  # a cycle
    with pytest.raises(SearchCorruptionError):
        G.walk_chain(g, {12: 6}, 0, 12)  # leaves bp
    buf = array("q", [-1]) * g.size
    buf[12] = 6
    with pytest.raises(SearchCorruptionError):
        G.walk_chain(g, memoryview(buf), 0, 12)  # reaches -1, not the start


def _outcome(f, path):
    try:
        return f(path)
    except ValueError as exc:
        return str(exc)


def test_path_cost_matches_listwise_reference():
    # bitwise equal costs and identical errors: random lattice paths in
    # 1-4 dimensions, then the same paths with one edge broken (a zero
    # step, mixed magnitudes, a dimension change, a float or nan delta)
    rng = np.random.default_rng(32)
    bad_steps = (0, "mixed", "dim", 0.5, math.nan)
    for trial in range(400):
        dim = int(rng.integers(1, 5))
        path = [tuple(int(c) for c in rng.integers(-20, 20, size=dim))]
        for _ in range(int(rng.integers(0, 30))):
            k = int(rng.choice([1, 3, 7, 9, 21, 27]))
            d = tuple(int(v) * k for v in rng.integers(-1, 2, size=dim))
            if not any(d):
                d = (k,) + d[1:]
            path.append(tuple(a + b for a, b in zip(path[-1], d)))
        want = oracles.listwise_path_cost(path)
        got = G.path_cost(path)
        assert got == want and type(got) is float, path
        if len(path) < 2:
            continue
        i = int(rng.integers(1, len(path)))
        prev = path[i - 1]
        bad = bad_steps[trial % len(bad_steps)]
        if bad == 0:
            cell = prev
        elif bad == "mixed":
            cell = (prev[0] + 1,) + tuple(c + 2 for c in prev[1:]) if dim > 1 else prev
        elif bad == "dim":
            cell = prev + (0,)
        else:
            cell = (prev[0] + bad,) + prev[1:]
        broken = path[:i] + [cell] + path[i + 1:]
        assert _outcome(G.path_cost, broken) == _outcome(oracles.listwise_path_cost, broken)


# ------------------------------------------------------------- components


def test_fine_components_partition():
    rng = np.random.default_rng(41)
    for extents in [(20, 15), (8, 7, 6)]:
        g = random_map(rng, extents, 0.35)
        labels = G.fine_components(g)
        assert labels.shape == g.blocked.shape
        assert np.all((labels < 0) == g.blocked)
        ref = oracles.reference_components(g)
        assert oracles.same_partition(labels.ravel(), ref, ~g.flat_blocked)
