"""Single-queue baselines and the exact-cost oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrastar import baselines as B
from mrastar import grid as G
from mrastar import kernels
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError
from mrastar.kernels import SQRT2, STEP

import oracles
from test_kernels import ORACLE_MAPS


def random_map(rng, extents, density):
    shape = tuple(reversed(extents))
    return G.GridMap(extents, rng.random(shape) < density)


def connected_free_pair(grid, rng):
    labels = G.fine_components(grid).ravel()
    best = np.bincount(labels[labels >= 0]).argmax()
    ids = np.flatnonzero(labels == best)
    a, b = rng.choice(ids, size=2, replace=False)
    return grid.cell_of(int(a)), grid.cell_of(int(b))


# -------------------------------------------------------- dijkstra oracle


def test_dijkstra_optimal_examples():
    g = G.GridMap.empty((10, 10))
    assert B.dijkstra_optimal(g, (4, 4), (4, 4)) == 0.0
    assert B.dijkstra_optimal(g, (0, 0), (9, 9)) == 9 * SQRT2
    assert round(B.dijkstra_optimal(g, (0, 0), (9, 9)), 4) == 12.7279
    blocked = np.zeros((10, 10), bool)
    blocked[:, 5] = True
    gw = G.GridMap((10, 10), blocked)
    assert B.dijkstra_optimal(gw, (0, 0), (9, 9)) == math.inf
    assert B.dijkstra_optimal(g, (0, 0), (5, 20)) == math.inf
    assert B.dijkstra_optimal(gw, (5, 0), (0, 0)) == math.inf  # blocked start


# the mask-oracle maps (extents of 1, one-cell-wide axes) plus larger
# ones, where the pairs are long enough for A* to skip cells
DIFFERENTIAL_MAPS = ORACLE_MAPS + [
    ((40, 40), 0.3, 13),
    ((72, 72), 0.3, 14),
    ((16, 16, 16), 0.25, 15),
    ((24, 24, 24), 0.25, 16),
]


@pytest.mark.parametrize("extents,density,seed", DIFFERENTIAL_MAPS)
def test_dijkstra_optimal_hex_equal_to_early_exit_dijkstra(extents, density, seed):
    # the A* oracle against the early-exit Dijkstra it replaced: random
    # pairs of free cells and of any cells, start == goal, blocked
    # endpoints and pairs in different components
    g = syn.random_grid(extents, density, seed)
    pick = np.random.default_rng(seed)
    labels = G.fine_components(g).ravel()
    free, blocked = np.flatnonzero(labels >= 0), np.flatnonzero(labels < 0)
    pairs = pick.choice(free, size=(30, 2)).tolist() + pick.integers(g.size, size=(6, 2)).tolist()
    pairs += [(a, a) for a in pick.integers(g.size, size=3).tolist()]
    if len(blocked):
        pairs += [(blocked[0], free[-1]), (free[0], blocked[-1]), (blocked[0], blocked[0])]
    firsts = np.unique(labels[free], return_index=True)[1]
    pairs += [(free[firsts[0]], free[i]) for i in firsts[1:4]]
    for a, b in pairs:
        start, goal = g.cell_of(int(a)), g.cell_of(int(b))
        want = oracles.early_exit_dijkstra_optimal(g, start, goal)
        assert B.dijkstra_optimal(g, start, goal).hex() == want.hex(), (start, goal)


@pytest.mark.parametrize("extents", [(7, 5), (4, 3, 2)])
def test_dijkstra_optimal_refuses_like_early_exit_dijkstra(extents):
    # malformed endpoints: out of range, wrong arity, non-integer
    g = G.GridMap.empty(extents)
    good = (0,) * len(extents)
    bad = [
        (-1,) + good[1:], (extents[0],) + good[1:], good + (0,), good[1:],
        (1.0,) + good[1:], (True,) + good[1:], "ab", None, 3,
    ]
    for cell in bad:
        for start, goal in ((cell, good), (good, cell)):
            got = B.dijkstra_optimal(g, start, goal)
            assert got == math.inf
            assert got.hex() == oracles.early_exit_dijkstra_optimal(g, start, goal).hex()


def test_dijkstra_optimal_matches_reference():
    rng = np.random.default_rng(51)
    for extents in [(20, 18), (9, 8, 7)]:
        g = random_map(rng, extents, 0.3)
        src = connected_free_pair(g, rng)[0]
        ref = oracles.reference_distances(g, src)
        for _ in range(40):
            cell = tuple(int(rng.integers(0, e)) for e in g.extents)
            got = B.dijkstra_optimal(g, src, cell)
            want = ref[g.flat_index(cell)] if g.is_free(cell) else np.inf
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert math.isclose(got, want, rel_tol=1e-12)


def test_dijkstra_field_shapes():
    rng = np.random.default_rng(52)
    g = random_map(rng, (12, 9), 0.2)
    src = connected_free_pair(g, rng)[0]
    dist, bp = B.dijkstra_field(g, src)
    assert dist.shape == g.blocked.shape and bp.shape == g.blocked.shape
    assert dist[tuple(reversed(src))] == 0.0
    # every reached non-source cell has a predecessor one valid move away
    reached = np.isfinite(dist) & (dist > 0)
    for flat in np.flatnonzero(reached.ravel()):
        cell = g.cell_of(int(flat))
        prev = g.cell_of(int(bp.ravel()[flat]))
        k, m = G.edge_decomposition(prev, cell)
        assert k == 1
        assert math.isclose(
            dist.ravel()[flat],
            dist[tuple(reversed(prev))] + STEP[m],
            rel_tol=1e-12,
        )


@pytest.mark.parametrize(
    "source", [(-1, 0), (5, 0), (0, -1), (0, 4), (0, 0, 0), (1,), ()]
)
def test_dijkstra_field_refuses_bad_source(source):
    # on a 5x4 map: out of bounds (which used to wrap to another flat id
    # or raise IndexError) or the wrong number of coordinates
    g = G.GridMap.empty((5, 4))
    with pytest.raises(InvalidProblemError):
        B.dijkstra_field(g, source)


def test_dijkstra_field_blocked_source_reaches_nothing():
    blocked = np.zeros((4, 5), bool)
    blocked[1, 2] = True
    g = G.GridMap((5, 4), blocked)
    dist, bp = B.dijkstra_field(g, (2, 1))
    assert np.all(np.isinf(dist)) and np.all(bp == -1)
    dist, _ = B.dijkstra_field(g, (4, 3))
    assert dist[3, 4] == 0.0 and np.isfinite(dist).sum() == 19


@pytest.mark.parametrize("extents,density,seed", ORACLE_MAPS)
def test_distance_fields_bitwise_equal_to_mask_dijkstra(extents, density, seed):
    # dijkstra_field and the traced kernels run astar_unit with no goal;
    # their dist and bp against the Dijkstra loop that served the fields
    # before, byte for byte, from free and blocked sources
    g = syn.random_grid(extents, density, seed)
    pick = np.random.default_rng(seed)
    run = kernels.dijkstra_2d if g.dim == 2 else kernels.dijkstra_3d
    free, blocked = np.flatnonzero(~g.flat_blocked), np.flatnonzero(g.flat_blocked)
    sources = {int(v) for v in pick.integers(g.size, size=3)}
    sources |= {int(v) for v in (*free[:1], *free[-1:], *blocked[:1], *blocked[-1:])}
    for src in sorted(sources):
        want = oracles.mask_dijkstra(g.blocked, src, -1)
        cell = g.cell_of(src)
        for dist, bp in (B.dijkstra_field(g, cell), run(g.flat_blocked, *g.extents, *cell)):
            assert dist.tobytes() == want[0].tobytes(), cell
            assert bp.tobytes() == want[1].tobytes(), cell


@pytest.mark.parametrize("extents,seed", [((16, 16), 1), ((8, 7, 6), 2)])
def test_dijkstra_field_shares_the_oracle_mask_cache(monkeypatch, extents, seed):
    g = syn.random_grid(extents, 0.2, seed)
    builds = []
    build = kernels.unit_moves
    monkeypatch.setattr(kernels, "unit_moves", lambda blocked: builds.append(1) or build(blocked))
    a, b = connected_free_pair(g, np.random.default_rng(seed))
    dist, _ = B.dijkstra_field(g, a)
    assert B.dijkstra_optimal(g, a, b) == dist[tuple(reversed(b))]
    B.dijkstra_field(g, b)
    assert len(builds) == 1


@settings(max_examples=200)
@given(
    extents=st.one_of(
        st.lists(st.integers(1, 8), min_size=2, max_size=2),
        st.lists(st.integers(1, 5), min_size=3, max_size=3),
    ),
    density=st.sampled_from((0.2, 0.35)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_dijkstra_field_chains_hex_equal_to_dijkstra_optimal(extents, density, seed, data):
    # equal-cost optima have equal integer counts of 1, sqrt2 and sqrt3
    # steps, so path_cost of the field's bp chain to any reached cell is
    # the same float as the goal-directed oracle's answer
    g = syn.random_grid(tuple(extents), density, seed)
    s = g.cell_of(data.draw(st.integers(0, g.size - 1)))
    dist, bp = (a.ravel() for a in B.dijkstra_field(g, s))
    for t in np.flatnonzero(np.isfinite(dist)).tolist():
        chain = [t]
        while bp[chain[-1]] >= 0:
            chain.append(int(bp[chain[-1]]))
        got = G.path_cost([g.cell_of(v) for v in reversed(chain)])
        assert got.hex() == B.dijkstra_optimal(g, s, g.cell_of(t)).hex(), (s, t)


# ----------------------------------------------------------- weighted A*


def test_wa_exact_astar_matches_dijkstra_bitwise():
    rng = np.random.default_rng(53)
    for _ in range(10):
        g = random_map(rng, (32, 24), 0.3)
        start, goal = connected_free_pair(g, rng)
        res = B.weighted_astar(g, start, goal, multiplier=1, w=1.0)
        assert res.status == S.STATUS_SOLVED
        assert res.cost == B.dijkstra_optimal(g, start, goal)


def test_wa_input_validation():
    g = G.GridMap.empty((32, 32))
    with pytest.raises(InvalidProblemError):
        B.weighted_astar(g, (3, 3), (10, 10), multiplier=4)
    with pytest.raises(InvalidProblemError):
        B.weighted_astar(g, (3, 3), (10, 10), w=0.5)
    # (0,0) is not a k=7 center
    with pytest.raises(InvalidProblemError):
        B.weighted_astar(g, (0, 0), (10, 10), multiplier=7)
    with pytest.raises(InvalidProblemError):
        B.weighted_astar(g, (3, 3), (4, 10), multiplier=7)
    blocked = np.zeros((32, 32), bool)
    blocked[3, 3] = True
    with pytest.raises(InvalidProblemError):
        B.weighted_astar(G.GridMap((32, 32), blocked), (3, 3), (10, 10), multiplier=7)


def test_wa_coarse_exhausts_where_ladder_solves():
    for seed in range(5):
        grid, start, goal = syn.corridor_instance(seed)
        coarse = B.weighted_astar(grid, start, goal, multiplier=7, w=3.0)
        assert coarse.status == S.STATUS_EXHAUSTED
        mra = S.plan(S.Problem(grid, start, goal, ladder=[1, 7]))
        assert mra.status == S.STATUS_SOLVED


def test_wa_bound_on_random_maps():
    rng = np.random.default_rng(54)
    for _ in range(15):
        g = random_map(rng, (64, 64), 0.3)
        start, goal = connected_free_pair(g, rng)
        res = B.weighted_astar(g, start, goal, multiplier=1, w=3.0)
        assert res.status == S.STATUS_SOLVED
        assert res.cost <= 3.0 * B.dijkstra_optimal(g, start, goal) + 1e-9
        assert res.bound == 3.0


def test_wa_timeout():
    g = G.GridMap.empty((64, 64))
    res = B.weighted_astar(g, (0, 0), (63, 63), w=1.0, timeout=1e-12)
    assert res.status == S.STATUS_TIMEOUT and res.path == []


# --------------------------------------------------------------- wa_union


def union_successors(cell, ladder, grid):
    out = []
    for i in G.get_space_indices(cell, ladder):
        out.extend(G.successors_at_scale(cell, ladder.multipliers[i], grid))
    return out


def test_union_branching_2d_and_3d():
    lad2 = G.ResolutionLadder((1, 7, 21))
    g2 = G.GridMap.empty((64, 64))
    # interior cell off every coarse sublattice: anchor moves only
    assert len(union_successors((5, 5), lad2, g2)) == 8

    lad3 = G.ResolutionLadder((1, 9, 27))
    g3 = G.GridMap.empty((81, 81, 81))
    # fully coincident interior cell: 26 moves at each of 3 scales
    assert len(union_successors((40, 40, 40), lad3, g3)) == 78
    assert len(union_successors((0, 0, 0), lad3, g3)) == 7  # corner, anchor only


def test_union_cost_bound_and_containment():
    rng = np.random.default_rng(55)
    lad = G.ResolutionLadder((1, 7, 21))
    for _ in range(8):
        g = random_map(rng, (48, 48), 0.25)
        start, goal = connected_free_pair(g, rng)
        opt = B.dijkstra_optimal(g, start, goal)
        res = B.wa_union(g, start, goal, ladder=lad, w=3.0)
        assert res.status == S.STATUS_SOLVED
        assert res.cost <= 3.0 * opt + 1e-9
        # union-optimal never beats the fine optimum from below either
        exact = B.wa_union(g, start, goal, ladder=lad, w=1.0)
        assert exact.cost <= opt + 1e-9


def test_union_optimal_not_above_single_resolution_optima():
    # coarse moves only add options: union optimum <= each single-scale
    # optimum whenever the single scale solves at all
    rng = np.random.default_rng(56)
    lad = G.ResolutionLadder((1, 7))
    g = G.GridMap.empty((36, 36))
    for _ in range(10):
        sx, sy = (int(v) * 7 + 3 for v in rng.integers(0, 4, size=2))
        gx, gy = (int(v) * 7 + 3 for v in rng.integers(0, 4, size=2))
        if (sx, sy) == (gx, gy):
            continue
        union = B.wa_union(g, (sx, sy), (gx, gy), ladder=lad, w=1.0)
        for k in (1, 7):
            single = B.weighted_astar(g, (sx, sy), (gx, gy), multiplier=k, w=1.0)
            if single.status == S.STATUS_SOLVED:
                assert union.cost <= single.cost + 1e-9


def test_walow_success_contained_in_mra():
    rng = np.random.default_rng(57)
    lad = G.ResolutionLadder((1, 7))
    solved_both = 0
    for _ in range(12):
        g = random_map(rng, (43, 43), 0.05)
        free7 = [
            (x, y)
            for x in range(3, 43, 7)
            for y in range(3, 43, 7)
            if g.is_free((x, y))
        ]
        if len(free7) < 2:
            continue
        idx = rng.choice(len(free7), size=2, replace=False)
        start, goal = free7[int(idx[0])], free7[int(idx[1])]
        low = B.weighted_astar(g, start, goal, multiplier=7, w=3.0)
        if low.status != S.STATUS_SOLVED:
            continue
        mra = S.plan(S.Problem(g, start, goal, ladder=lad))
        assert mra.status == S.STATUS_SOLVED
        solved_both += 1
    assert solved_both >= 3


# ------------------------------------------------ generative baseline property


@settings(max_examples=300)
@given(
    extents=st.one_of(
        st.lists(st.integers(1, 16), min_size=2, max_size=2),
        st.lists(st.integers(1, 9), min_size=3, max_size=3),
    ),
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
    coarse=st.lists(st.integers(1, 10).map(lambda m: 2 * m + 1), max_size=3, unique=True),
    w=st.floats(1.0, 5.0),
    ends=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
)
def test_baseline_properties(extents, density, seed, coarse, w, ends):
    # astar is exact, float.hex equal to the oracle; wa-high and wa-mr
    # (over a ladder of zero to three odd coarse levels) stay within
    # w times the unit-lattice optimum; every planner solves a query iff
    # its endpoints share a fine component, and a solved cost is the
    # path_cost of its path
    grid = syn.random_grid(tuple(extents), density, seed)
    free = np.flatnonzero(~grid.flat_blocked)
    assume(free.size)
    start, goal = (grid.cell_of(int(free[e % free.size])) for e in ends)
    labels = G.fine_components(grid).ravel()
    connected = labels[grid.flat_index(start)] == labels[grid.flat_index(goal)]
    opt = B.dijkstra_optimal(grid, start, goal)
    assert math.isfinite(opt) == connected
    results = {
        "astar": B.weighted_astar(grid, start, goal),
        "wa-high": B.weighted_astar(grid, start, goal, w=w),
        "wa-mr": B.wa_union(grid, start, goal, (1, *sorted(coarse)), w=w),
    }
    for name, res in results.items():
        assert res.status == (S.STATUS_SOLVED if connected else S.STATUS_EXHAUSTED), name
        if connected:
            assert res.cost == G.path_cost(res.path), name
            assert res.path[0] == start and res.path[-1] == goal, name
    if connected:
        assert results["astar"].cost.hex() == opt.hex()
        for name in ("wa-high", "wa-mr"):
            assert results[name].cost <= w * opt * (1 + 1e-9), name
