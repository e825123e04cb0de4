"""Plain-Python kernels for grid geometry and the exact unit-lattice search.

Everything here operates on flat occupancy sequences (a numpy bool array
or a list; True for blocked cells) plus integer coordinates.  One rule
decides moves, the box rule: a king move of length k is valid iff every
cell of the box each of its k unit steps spans is free.  move_free
checks it cell by cell for grid.edge_valid; successors (and its traced
2D/3D entry points) builds on it for grid.successors_at_scale.
unit_moves, the one builder of unit moves, builds each cell's unit-move
bitmask with numpy by the same rule, reading each of the 3^d neighbour
offsets once; GridMap.move_table(1), its one caller, is its result.
Every search, the planners' and the exact oracle's, reads a state's
moves through a DecodedMoves cache.  The oracle is one loop,
astar_unit, over state its caller owns (dist, done and bp): toward a
goal an A* with its own heuristic, the obstacle-free distance of unit
moves (octile in 2D), computed inline on each push with no call,
behind baselines.dijkstra_optimal, over the planners' own k = 1 table,
which is checked apart from this builder (tests/test_kernels.py,
tests/test_move_tables.py and perfbench's scipy reference); with goal
= -1 a full Dijkstra field, whose one entry point is dijkstra_2d/3d.
dijkstra_optimal runs it on the planners' (g, closed) pair, borrowed
from search's free list, and a dict bp, so that a call allocates in
proportion to the cells it reaches; the pair costs 16 B per cell of the
largest map, one per search or oracle call running at once.  The
fields run it on fresh whole-map buffers, over a grid.GridMap of their
occupancy: they search its move_table(1), and grid.check_cell, the one
cell check of every entry point, judges their source.  They import grid
inside the function, since grid imports this module as it loads.
Labels come from scipy.ndimage.

Coordinate convention: x is the fastest-varying axis.  A 2D map with
width w stores cell (x, y) at flat index y*w + x; a 3D map with width w
and height h stores (x, y, z) at (z*h + y)*w + x.
"""

import functools
import itertools
import math
from array import array
from heapq import heappop, heappush

import numpy as np
from scipy import ndimage

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Cost of a unit move, indexed by the number of axes it changes.
STEP = (0.0, 1.0, SQRT2, SQRT3)

# There is no compiled backend; perfbench/run.py's environment record
# still reads this flag.
NUMBA_ENABLED = False


def _chunk_bits(base: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(base + b for b in range(9) if m >> b & 1) for m in range(512)
    )


# MASK_BITS[m] lists the set bits of m < 512, ascending; MID_BITS and
# HIGH_BITS do the same for bits 9-17 and 18-26, so that decoding a
# 27-bit mask costs one to three tuple lookups instead of a loop per bit.
MASK_BITS = _chunk_bits(0)
MID_BITS = _chunk_bits(9)
HIGH_BITS = _chunk_bits(18)


def mask_bits(m: int) -> tuple[int, ...]:
    """Indices of the set bits of m >= 0, ascending."""
    if m < 512:
        return MASK_BITS[m]
    if m < 1 << 27:
        return MASK_BITS[m & 511] + MID_BITS[m >> 9 & 511] + HIGH_BITS[m >> 18]
    return tuple(b for b in range(m.bit_length()) if m >> b & 1)


class DecodedMoves(dict):
    """Mask value -> tuple of the (offset, cost) pairs of its set bits,
    ascending, each entry built the first time its mask is read.  The
    pairs are built once per table, and every entry holds those same
    pair objects."""

    __slots__ = ("pairs",)

    def __init__(self, offsets, costs):
        self.pairs = tuple(zip(offsets, costs))

    def __missing__(self, m: int):
        pairs = self.pairs
        self[m] = moves = tuple(pairs[b] for b in mask_bits(m))
        return moves


@functools.cache
def directions(dim: int) -> tuple[tuple[int, ...], ...]:
    """King-move unit vectors (x first) in the kernels' order: dy (and
    dz) outermost, dx innermost, the zero vector skipped."""
    return tuple(s[::-1] for s in itertools.product((-1, 0, 1), repeat=dim) if any(s))


def move_free(occ, extents, cell, step, k):
    """True iff the length-k king move from cell along step (-1, 0 or 1
    per axis, x first) stays on the map and every cell of the box each
    of its k unit steps spans is free: source, destination and, for a
    diagonal, each flank (the corner rule).  occ is flat, True for
    blocked cells; cell has one coordinate per entry of extents."""
    base = off = 0
    stride = 1
    corners = [0]  # flat offsets of a unit box's cells from its source
    for c, s, n in zip(cell, step, extents):
        if not (0 <= c < n and 0 <= c + k * s < n):
            return False
        base += c * stride
        if s:
            off += s * stride
            corners += [q + s * stride for q in corners]
        stride *= n
    for t in range(k):
        p = base + t * off
        for q in corners:
            if occ[p + q]:
                return False
    return True


def successors(occ, extents, cell, k):
    """Valid king moves of length k from cell (see move_free), as a list
    of (flat id, axes changed) pairs in directions' order."""
    strides = [math.prod(extents[:axis]) for axis in range(len(extents))]
    base = sum(c * st for c, st in zip(cell, strides))
    return [
        (base + k * sum(s * st for s, st in zip(step, strides)), len(step) - step.count(0))
        for step in directions(len(extents))
        if move_free(occ, extents, cell, step, k)
    ]


def successors_2d(occ, w, h, x, y, k):
    """successors on a w x h map: dy outermost, dx innermost."""
    return successors(occ, (w, h), (x, y), k)


def successors_3d(occ, w, h, d, x, y, z, k):
    """successors on a w x h x d map: dz outermost, dx innermost."""
    return successors(occ, (w, h, d), (x, y, z), k)


@functools.cache
def _box_bits(dim: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(c, bits) for each offset c in {-1, 0, 1}^dim, in array axis order
    and the zero offset included: bit b of bits is set iff the box of
    unit direction b (directions' order) holds the cell c away from the
    source, that is iff on every axis c is 0 or direction b's step."""
    steps = [d[::-1] for d in directions(dim)]  # array axis order
    return tuple(
        (c, sum(1 << b for b, step in enumerate(steps)
                if all(ca in (0, sa) for ca, sa in zip(c, step))))
        for c in itertools.product((-1, 0, 1), repeat=dim)
    )


def unit_moves(blocked):
    """Every valid unit move of an occupancy array shaped (H, W) or
    (D, H, W), True for blocked cells, by the box rule.

    A unit move is valid iff every cell of the box it spans (source,
    destination and, for a diagonal, each flank) is free.  Returns
    (masks, offsets, costs): masks is a memoryview over uint8 (2D, 8
    directions) or uint32 (3D, 26 directions) with bit b set iff
    direction b is valid from that flat cell, in directions' order (dy,
    or dz, outermost, dx innermost); offsets[b] is the direction's
    flat-index step and costs[b] its STEP cost.  The one builder of unit
    moves: GridMap.move_table(1) is MoveTable(1, *unit_moves(blocked)).

    Each neighbour offset is read once.  blocked is padded with one
    blocked cell per side and flattened, so that offset c is one
    contiguous slice, and a blocked cell c away clears the bits of
    every direction whose box holds c (_box_bits): 3^d multiply-ORs in
    all.  The zero offset is in every box, so a blocked cell gets 0, and
    the padding clears every direction that leaves the map.
    """
    shape = blocked.shape
    dim = len(shape)
    dtype = np.uint8 if dim == 2 else np.uint32
    padded = np.pad(blocked, 1, constant_values=True)
    pad_strides = [math.prod(padded.shape[axis + 1:]) for axis in range(dim)]
    occ = padded.ravel().astype(dtype)  # 1 where blocked
    first = sum(pad_strides)  # padded flat id of the map's first cell
    n = occ.size - 2 * first  # from the map's first cell to its last
    cleared = np.zeros(occ.size, dtype)
    span, part = cleared[first:first + n], np.empty(n, dtype)
    for c, bits in _box_bits(dim):
        at = first + sum(ca * st for ca, st in zip(c, pad_strides))
        np.multiply(occ[at:at + n], bits, out=part)
        span |= part  # the span's padding cells are dropped below
    every = dtype((1 << len(directions(dim))) - 1)
    masks = cleared.reshape(padded.shape)[(slice(1, -1),) * dim] ^ every
    strides = [math.prod(shape[axis + 1:]) for axis in range(dim)]
    steps = [d[::-1] for d in directions(dim)]  # array axis order
    offsets = tuple(sum(s * st for s, st in zip(step, strides)) for step in steps)
    costs = tuple(STEP[len(step) - step.count(0)] for step in steps)
    return memoryview(masks.ravel()), offsets, costs


def astar_unit(blocked, masks, moves, source, goal, dist, done, bp):
    """The one exact search over the unit lattice: A* from flat id
    source over the unit moves of blocked, unit_moves' masks and a
    DecodedMoves of its offsets and costs, as the planners' own k = 1
    table holds them (GridMap.move_table(1).masks and .moves), on state
    the caller owns: dist (floats indexed by flat id, inf where
    unreached), done (0 where unsettled) and bp (a predecessor map),
    each covering the map.  Toward a flat id goal its own heuristic,
    not the planners', is the exact obstacle-free distance of unit moves
    to goal: with the axis distances sorted as lo <= mid <= hi, lo *
    SQRT3 + (mid - lo) * SQRT2 + (hi - mid) in 3D and octile in 2D.
    Both are consistent with the unit-move costs, so a settled cell's
    dist is exact and the search stops once goal is settled.  With goal
    = -1 the heuristic is zero and the search settles every reachable
    cell: a Dijkstra distance field.  The case is picked once per call,
    and each improving push computes its key inline, with no call: the
    3D axis distances are sorted by three compare-and-swaps.  A blocked
    source reaches nothing.  Returns nothing: dist holds each reached
    cell's distance (the source's 0.0), done is 1 at each settled cell
    and bp[v] is reached cell v's predecessor, written at every reached
    cell but the source and nowhere else, so the cells whose entries
    the call changed are the source and bp's keys.  The table is
    checked apart from unit_moves (see the module docstring)."""
    source, goal = int(source), int(goal)
    if blocked.flat[source]:
        return
    w = blocked.shape[-1]
    wh = w * blocked.shape[-2]  # on a 2D map every z is 0
    gx, gy, gz = goal % w, goal % wh // w, goal // wh
    cube, flat = goal >= 0 and blocked.ndim == 3, goal >= 0 and blocked.ndim == 2
    sqrt2, sqrt3 = SQRT2, SQRT3
    dist[source] = 0.0
    heap = [(0.0, source)]  # popped first whatever its key
    while heap:
        u = heappop(heap)[1]
        if done[u]:
            continue
        done[u] = 1
        if u == goal:
            break
        du = dist[u]
        for off, cost in moves[masks[u]]:
            v = u + off
            nd = du + cost
            if nd < dist[v]:
                dist[v] = nd
                bp[v] = u
                if cube:
                    lo, mid, hi = abs(v % w - gx), abs(v % wh // w - gy), abs(v // wh - gz)
                    if lo > mid:
                        lo, mid = mid, lo
                    if mid > hi:
                        mid, hi = hi, mid
                        if lo > mid:
                            lo, mid = mid, lo
                    nd += lo * sqrt3 + (mid - lo) * sqrt2 + (hi - mid)
                elif flat:
                    dx, dy = abs(v % w - gx), abs(v // w - gy)
                    nd += dx * sqrt2 + (dy - dx) if dx < dy else dy * sqrt2 + (dx - dy)
                heappush(heap, (nd, v))


def _field(occ, extents, source):
    """astar_unit's full field from cell source on the map of the given
    extents whose occupancy occ is, on fresh whole-map buffers: (dist,
    bp) as flat numpy arrays, dist inf and bp -1 where no cell was
    reached, bp -1 at the source too.  The map is a grid.GridMap, whose
    move_table(1) the search reads; grid.check_cell judges source, so an
    off-map or non-integer one raises InvalidProblemError, and a blocked
    one reaches nothing (an all-inf field)."""
    from .grid import GridMap, check_cell  # here: grid imports this module

    grid = GridMap(extents, np.asarray(occ, dtype=bool).reshape(extents[::-1]))
    source = grid.flat_index(check_cell(grid, source, "source"))
    n = grid.size
    dist, bp = array("d", [math.inf]) * n, array("q", [-1]) * n
    t = grid.move_table(1)
    astar_unit(grid.blocked, t.masks, t.moves, source, -1, dist, bytearray(n), bp)
    return np.frombuffer(dist, dtype=np.float64), np.frombuffer(bp, dtype=np.int64)


def dijkstra_2d(occ, w, h, sx, sy):
    """astar_unit's full field from (sx, sy) on a w x h map: (dist, bp)
    as flat numpy arrays (see _field)."""
    return _field(occ, (w, h), (sx, sy))


def dijkstra_3d(occ, w, h, d, sx, sy, sz):
    """dijkstra_2d on a w x h x d map, 26-connected."""
    return _field(occ, (w, h, d), (sx, sy, sz))


def _component_labels(occ, shape):
    labels, _ = ndimage.label(~np.asarray(occ, dtype=bool).reshape(shape))
    return (labels - 1).astype(np.int32).ravel()


def component_labels_2d(occ, w, h):
    """Label connected free regions of the unit lattice (same move rules
    as the planners, including the corner rule).  Blocked cells get -1;
    labels start at 0 in scan order.

    Under the corner rule a diagonal unit move needs both flank cells
    free, so unit-lattice connectivity is exactly face (4-)connectivity,
    which scipy.ndimage.label computes; its labels also follow scan
    order.  Returns a flat int32 array."""
    return _component_labels(occ, (h, w))


def component_labels_3d(occ, w, h, d):
    """3D analogue of component_labels_2d: face (6-)connectivity equals
    26-connectivity under the corner rule."""
    return _component_labels(occ, (d, h, w))
