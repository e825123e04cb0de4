"""Kernel correctness against exact-geometry and scipy oracles."""

import math

import numpy as np
import pytest

import oracles
from mrastar import GridMap, random_grid
from mrastar import kernels
from mrastar.grid import edge_decomposition, fine_components, path_cost


def kernel_visited_2d(a, b):
    """Cells the segment walk (oracles.walk_free_2d) treats as traversed,
    recovered by probing: block one candidate cell at a time in an
    otherwise free map and see whether the walk rejects the edge."""
    xs = (a[0], b[0])
    ys = (a[1], b[1])
    off = (min(xs) - 2, min(ys) - 2)
    w = max(xs) - min(xs) + 5
    h = max(ys) - min(ys) + 5
    a_s = (a[0] - off[0], a[1] - off[1])
    b_s = (b[0] - off[0], b[1] - off[1])
    visited = set()
    for cy in range(h):
        for cx in range(w):
            occ = np.zeros(w * h, dtype=bool)
            occ[cy * w + cx] = True
            if not oracles.walk_free_2d(occ, w, a_s[0], a_s[1], b_s[0], b_s[1]):
                visited.add((cx + off[0], cy + off[1]))
    return visited


def kernel_visited_3d(a, b):
    lo = [min(ai, bi) - 2 for ai, bi in zip(a, b)]
    hi = [max(ai, bi) + 2 for ai, bi in zip(a, b)]
    w, h, d = (hx - lx + 1 for lx, hx in zip(lo, hi))
    a_s = tuple(ai - li for ai, li in zip(a, lo))
    b_s = tuple(bi - li for bi, li in zip(b, lo))
    visited = set()
    for cz in range(d):
        for cy in range(h):
            for cx in range(w):
                occ = np.zeros(w * h * d, dtype=bool)
                occ[(cz * h + cy) * w + cx] = True
                if not oracles.walk_free_3d(
                    occ, w, h, a_s[0], a_s[1], a_s[2], b_s[0], b_s[1], b_s[2]
                ):
                    visited.add((cx + lo[0], cy + lo[1], cz + lo[2]))
    return visited


def test_supercover_2d_visited_set_matches_exact_geometry(rng):
    # Every delta up to (6, 6) plus random endpoints; the walk's
    # traversed set must equal the set of cells the segment touches.
    cases = [((0, 0), (dx, dy)) for dx in range(7) for dy in range(7)]
    for _ in range(60):
        a = tuple(int(v) for v in rng.integers(-5, 6, size=2))
        b = tuple(int(v) for v in rng.integers(-5, 6, size=2))
        cases.append((a, b))
    for a, b in cases:
        assert kernel_visited_2d(a, b) == oracles.touched_cells(a, b), (a, b)


def test_supercover_3d_visited_set_matches_exact_geometry(rng):
    cases = [
        ((0, 0, 0), (2, 3, 6)),
        ((0, 0, 0), (4, 4, 4)),  # exact corner crossings
        ((0, 0, 0), (4, 4, 2)),  # two-axis ties
        ((0, 0, 0), (0, 0, 5)),
        ((0, 0, 0), (6, 2, 0)),
        ((0, 0, 0), (3, 5, 1)),
    ]
    for _ in range(40):
        a = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        b = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        cases.append((a, b))
    for a, b in cases:
        assert kernel_visited_3d(a, b) == oracles.touched_cells(a, b), (a, b)


def test_supercover_symmetry(rng):
    for _ in range(200):
        w = h = 12
        occ = rng.random(w * h) < 0.35
        a = tuple(int(v) for v in rng.integers(0, w, size=2))
        b = tuple(int(v) for v in rng.integers(0, w, size=2))
        f = oracles.walk_free_2d(occ, w, a[0], a[1], b[0], b[1])
        r = oracles.walk_free_2d(occ, w, b[0], b[1], a[0], a[1])
        assert f == r


def test_successors_2d_order_and_costs():
    g = GridMap.empty((9, 9))
    moves = kernels.successors_2d(g.flat_blocked, 9, 9, 4, 4, 1)
    # fixed order: dy outer from -1, dx inner from -1, (0,0) skipped
    assert [g.cell_of(v) for v, _ in moves] == [
        (3, 3), (4, 3), (5, 3), (3, 4), (5, 4), (3, 5), (4, 5), (5, 5)
    ]
    assert [m for _, m in moves] == [2, 1, 2, 1, 1, 2, 1, 2]


def test_successors_2d_bounds_and_blocking():
    g = GridMap.empty((9, 9))
    assert len(kernels.successors_2d(g.flat_blocked, 9, 9, 0, 0, 1)) == 3  # corner cell
    occ = g.flat_blocked.copy()
    occ[4 * 9 + 5] = True  # block (5,4)
    occ[5 * 9 + 4] = True  # block (4,5)
    moves = kernels.successors_2d(occ, 9, 9, 4, 4, 1)
    # every diagonal brushing a blocked flank is cut, not just (5,5)
    assert [g.cell_of(v) for v, _ in moves] == [(3, 3), (4, 3), (3, 4)]
    assert [m for _, m in moves] == [2, 1, 1]


def test_successors_3d_count_interior():
    g = GridMap.empty((7, 7, 7))
    moves = kernels.successors_3d(g.flat_blocked, 7, 7, 7, 3, 3, 3, 1)
    assert len(moves) == 26
    assert sorted(m for _, m in moves) == [1] * 6 + [2] * 12 + [3] * 8
    # dz outermost, dx innermost: flat ids ascend
    assert [v for v, _ in moves] == sorted(v for v, _ in moves)
    assert g.flat_index((2, 2, 2)) == moves[0][0]
    assert g.flat_index((4, 4, 4)) == moves[-1][0]


@pytest.mark.parametrize("shape,density,seed", [((24, 24), 0.3, 1), ((18, 18), 0.45, 2)])
def test_dijkstra_2d_matches_scipy_reference(shape, density, seed):
    g = random_grid(shape, density, seed)
    src = next(c for c in oracles.grid_cells(g) if g.is_free(c))
    dist, bp = kernels.dijkstra_2d(g.flat_blocked, g.extents[0], g.extents[1], src[0], src[1])
    ref = oracles.reference_distances(g, src)
    assert np.allclose(dist, ref, rtol=1e-12, atol=1e-12, equal_nan=False)
    # backpointers reconstruct monotone shortest paths
    for cell in oracles.grid_cells(g):
        u = g.flat_index(cell)
        if math.isfinite(dist[u]) and u != g.flat_index(src):
            p = int(bp[u])
            assert p >= 0
            assert dist[p] < dist[u]


def test_dijkstra_3d_matches_scipy_reference():
    g = random_grid((9, 9, 9), 0.25, seed=3)
    src = next(c for c in oracles.grid_cells(g) if g.is_free(c))
    dist, _ = kernels.dijkstra_3d(g.flat_blocked, 9, 9, 9, src[0], src[1], src[2])
    ref = oracles.reference_distances(g, src)
    assert np.allclose(dist, ref, rtol=1e-12, atol=1e-12)


def test_dijkstra_early_exit_agrees_with_full_field():
    # the reference early-exit Dijkstra against the kernels' full field
    for extents, seed in (((20, 20), 4), ((9, 8, 7), 5)):
        g = random_grid(extents, 0.3, seed=seed)
        src = next(c for c in oracles.grid_cells(g) if g.is_free(c))
        run = kernels.dijkstra_2d if g.dim == 2 else kernels.dijkstra_3d
        full, _ = run(g.flat_blocked, *g.extents, *src)
        # a goal halfway out, so the early exit has cells left to skip
        reached = np.flatnonzero(np.isfinite(full))
        t = int(reached[np.argsort(full[reached], kind="stable")[len(reached) // 2]])
        early, _ = oracles.mask_dijkstra(g.blocked, g.flat_index(src), t)
        assert early[t] == full[t]
        settled = early <= early[t]
        assert np.array_equal(early[settled], full[settled])
        assert np.isfinite(early).sum() < len(reached)


# (extents, density, seed) for the mask-oracle checks: extents of 1,
# maps one cell wide along each axis, dense and non-cubic maps
ORACLE_MAPS = [
    ((1, 1), 0.0, 1),
    ((1, 9), 0.2, 2),
    ((12, 1), 0.2, 3),
    ((7, 5), 0.5, 4),
    ((24, 18), 0.3, 5),
    ((30, 30), 0.1, 6),
    ((1, 1, 1), 0.0, 7),
    ((1, 6, 5), 0.2, 8),
    ((6, 1, 4), 0.2, 9),
    ((5, 4, 1), 0.2, 10),
    ((9, 8, 7), 0.25, 11),
    ((12, 10, 3), 0.4, 12),
]


@pytest.mark.parametrize("extents,density,seed", ORACLE_MAPS)
def test_dijkstra_bitwise_equal_to_supercover_oracle(extents, density, seed):
    # the mask-driven searches against the segment-walk Dijkstra they
    # replaced: dist and bp equal byte for byte, from free and blocked
    # sources, for the kernels' full fields and the reference
    # mask_dijkstra's early exits
    g = random_grid(extents, density, seed)
    pick = np.random.default_rng(seed)
    run = kernels.dijkstra_2d if g.dim == 2 else kernels.dijkstra_3d
    sources = {int(v) for v in pick.integers(g.size, size=4)}
    sources |= set(np.flatnonzero(g.flat_blocked)[:1].tolist())
    for src in sorted(sources):
        for goal in (-1, int(pick.integers(g.size)), src):
            want = oracles.supercover_dijkstra(g.flat_blocked, g.extents, src, goal)
            if goal < 0:
                got = run(g.flat_blocked, *g.extents, *g.cell_of(src))
            else:
                got = oracles.mask_dijkstra(g.blocked, src, goal)
            assert got[0].tobytes() == want[0].tobytes(), (src, goal)
            assert got[1].tobytes() == want[1].tobytes(), (src, goal)


@pytest.mark.parametrize("extents,density,seed", ORACLE_MAPS)
def test_unit_moves_equal_reference_graph(extents, density, seed):
    # the oracle's box-rule masks against unit moves validated by exact
    # geometry: same edge set and the same cost on every edge
    g = random_grid(extents, density, seed)
    masks, offsets, costs = kernels.unit_moves(g.blocked)
    assert masks.format == ("B" if g.dim == 2 else "I") and len(masks) == g.size
    ref = oracles.reference_graph(g)
    for u in range(g.size):
        got = {(u + offsets[b], costs[b]) for b in kernels.mask_bits(masks[u])}
        row = ref.getrow(u)
        assert got == set(zip(row.indices.tolist(), row.data.tolist())), g.cell_of(u)


@pytest.mark.parametrize("extents,density,seed", [
    ((1, 1), 0.0, 1), ((1, 9), 0.2, 2), ((2, 2), 0.0, 3), ((2, 7), 0.3, 4),
    ((20, 17), 0.3, 5), ((80, 72), 0.25, 6), ((6, 5), 1.0, 7),
    ((1, 1, 1), 0.0, 8), ((2, 1, 2), 0.0, 9), ((1, 2, 1), 0.1, 10), ((2, 9, 5), 0.2, 11),
    ((12, 5, 3), 0.2, 12), ((24, 1, 24), 0.2, 13), ((24, 24, 24), 0.25, 14),
])
def test_unit_moves_equal_corner_builder(extents, density, seed):
    # the builder whose boxes share sub-boxes against the one it replaced,
    # which ANDs every corner of each box (oracles.corner_unit_moves):
    # masks byte for byte with the same format, offsets, float.hex costs
    g = random_grid(extents, density, seed)
    got, want = kernels.unit_moves(g.blocked), oracles.corner_unit_moves(g.blocked)
    assert got[0].format == want[0].format and bytes(got[0]) == bytes(want[0])
    assert got[1] == want[1]
    assert [c.hex() for c in got[2]] == [c.hex() for c in want[2]]


@pytest.mark.parametrize("extents,density,seed", [((24, 24, 24), 0.25, 1), ((72, 72), 0.3, 2)])
def test_astar_unit_reaches_fewer_cells_than_early_exit_dijkstra(extents, density, seed):
    # the oracle's A* against the early-exit Dijkstra on pairs at least
    # 8 cells apart: the same goal distance, a bp chain that is a valid
    # unit path of that cost, and strictly fewer cells reached
    g = random_grid(extents, density, seed)
    pick = np.random.default_rng(seed)
    labels = fine_components(g).ravel()
    main = np.flatnonzero(labels == np.bincount(labels[labels >= 0]).argmax())
    masks, offsets, costs = kernels.unit_moves(g.blocked)
    moves = kernels.DecodedMoves(offsets, costs)
    pairs = 0
    while pairs < 8:
        a, b = (int(v) for v in pick.choice(main, size=2))
        if math.dist(g.cell_of(a), g.cell_of(b)) < 8:
            continue
        pairs += 1
        dist, bp = kernels.astar_unit(g.blocked, masks, moves, a, b)
        want, _ = oracles.mask_dijkstra(g.blocked, a, b)
        assert abs(dist[b] - want[b]) <= 1e-12
        assert np.isfinite(dist).sum() < np.isfinite(want).sum()
        chain = [b]
        while chain[-1] != a:
            chain.append(int(bp[chain[-1]]))
            assert chain[-1] >= 0 and len(chain) <= g.size
        path = [g.cell_of(v) for v in reversed(chain)]
        for u, v in zip(path, path[1:]):
            assert edge_decomposition(u, v)[0] == 1
            assert oracles.edge_free_exact(u, v, g), (u, v)
        assert abs(path_cost(path) - dist[b]) <= 1e-12


# Goals at these axis distances (|dx|, |dy|, |dz|) from the corners of
# a free 7 x 6 x 5 map: every order of three distinct values, two- and
# three-way ties and zero axes; on a free 9 x 7 map dx < dy, dx > dy
# and dx == dy.
_DELTAS = {
    (7, 6, 5): (
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        (2, 2, 1), (2, 1, 2), (1, 2, 2), (1, 1, 3), (3, 1, 1), (3, 3, 4), (6, 5, 4),
        (2, 2, 2), (4, 4, 4), (0, 0, 3), (0, 2, 0), (6, 0, 0), (0, 3, 3), (4, 0, 1), (0, 0, 0),
    ),
    (9, 7): ((2, 5), (5, 2), (4, 4), (1, 6), (0, 3), (3, 0), (0, 0)),
}


@pytest.mark.parametrize("extents,density,seed", [
    ((1, 1), 0.0, 1), ((1, 9), 0.2, 2), ((2, 2), 0.0, 3), ((6, 5), 1.0, 4),
    ((20, 17), 0.3, 5), ((48, 40), 0.25, 6),
    ((1, 1, 1), 0.0, 7), ((1, 6, 5), 0.2, 8), ((2, 1, 2), 0.0, 9), ((3, 3, 3), 1.0, 10),
    ((9, 8, 7), 0.25, 11), ((16, 16, 16), 0.25, 12), ((7, 6, 5), 0.0, 13), ((9, 7), 0.0, 14),
])
def test_astar_unit_equal_to_bit_decoding_astar(extents, density, seed):
    # the oracle relaxing through the k = 1 table's decoded-move cache,
    # its heuristic keys computed inline, against the A* that decoded
    # each mask's bits itself and called a heuristic closure per push
    # (oracles.bits_astar_unit): dist and bp byte for byte, toward goals
    # and as full fields (goal = -1), from free and blocked sources, and
    # on the maps of _DELTAS between each corner and the goals at its
    # deltas from it, either way round, so that every axis difference
    # takes both signs
    g = random_grid(extents, density, seed)
    t = g.move_table(1)
    pick = np.random.default_rng(seed)
    sources = {int(v) for v in pick.integers(g.size, size=3)}
    sources |= set(np.flatnonzero(g.flat_blocked)[:1].tolist())
    sources |= set(np.flatnonzero(~g.flat_blocked)[-1:].tolist())
    pairs = [(src, goal) for src in sorted(sources)
             for goal in (-1, src, int(pick.integers(g.size)), g.size - 1)]
    last = g.size - 1
    for d in _DELTAS.get(extents, ()):
        near = g.flat_index(d)
        far = g.flat_index(tuple(n - 1 - c for n, c in zip(extents, d)))
        pairs += [(0, near), (near, 0), (last, far), (far, last)]
    for src, goal in pairs:
        got = kernels.astar_unit(g.blocked, t.masks, t.moves, src, goal)
        want = oracles.bits_astar_unit(g.blocked, t.masks, t.offsets, t.costs, src, goal)
        assert got[0].tobytes() == want[0].tobytes(), (src, goal)
        assert got[1].tobytes() == want[1].tobytes(), (src, goal)


def test_component_labels_match_scipy_partition():
    for seed, shape in ((5, (16, 16)), (6, (30, 30)), (7, (8, 8, 8))):
        g = random_grid(shape, 0.4, seed)
        if g.dim == 2:
            labels = kernels.component_labels_2d(g.flat_blocked, *g.extents)
        else:
            labels = kernels.component_labels_3d(g.flat_blocked, *g.extents)
        ref = oracles.reference_components(g)
        free = ~g.flat_blocked
        labels = np.asarray(labels)
        assert labels.dtype == np.int32
        assert oracles.same_partition(labels, ref, free)
        assert np.all(labels[~free] == -1)
        # numbered 0, 1, ... in scan order of each component's first cell
        first = [np.flatnonzero(labels == lab)[0] for lab in range(labels.max() + 1)]
        assert first == sorted(first)


def test_heap_growth_past_initial_capacity():
    # a 64x64 free map: thousands of heap entries, exact corner distance
    g = GridMap.empty((64, 64))
    dist, _ = kernels.dijkstra_2d(g.flat_blocked, 64, 64, 0, 0)
    assert math.isclose(dist[64 * 64 - 1], 63 * math.sqrt(2.0), rel_tol=1e-12)
    assert np.all(np.isfinite(dist))
