"""Plain-Python kernels for grid geometry and the exact unit-lattice search.

Everything here operates on flat occupancy sequences (a numpy bool array
or a list; True for blocked cells) plus integer coordinates.  One rule
decides moves, the box rule: a king move of length k is valid iff every
cell of the box each of its k unit steps spans is free.  move_free
checks it cell by cell for grid.edge_valid; successors (and its traced
2D/3D entry points) builds on it for grid.successors_at_scale.
unit_moves, the one builder of unit moves, builds each cell's unit-move
bitmask with numpy by the same rule; GridMap.move_table(1) is its
result.  Every search, the planners' and the exact oracle's, reads a
state's moves through a DecodedMoves cache.  The oracle is one loop,
astar_unit: toward a goal an A* with its own heuristic, the
obstacle-free distance of unit moves (octile in 2D), computed inline
on each push with no call, behind baselines.dijkstra_optimal; with
goal = -1 a full Dijkstra field, behind baselines.dijkstra_field and
the traced dijkstra_2d/3d.  Both baselines search the planners' own
k = 1 table, which is checked apart from this builder
(tests/test_kernels.py, tests/test_move_tables.py and perfbench's
scipy reference).  Labels come from scipy.ndimage.

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
    Boxes share their sub-boxes (see _box), so each direction costs one
    array AND.
    """
    shape = blocked.shape
    strides = [math.prod(shape[axis + 1:]) for axis in range(len(shape))]
    dtype = np.uint8 if len(shape) == 2 else np.uint32
    boxes = {(0,) * len(shape): np.pad(~blocked, 1)}
    inside = (slice(1, -1),) * len(shape)  # the map's own cells of a padded box
    masks = np.zeros(shape, dtype)
    offsets, costs = [], []
    steps = [d[::-1] for d in directions(len(shape))]  # array axis order
    for b, step in enumerate(steps):
        masks |= _box(boxes, step)[inside].astype(dtype) << b
        offsets.append(sum(s * st for s, st in zip(step, strides)))
        costs.append(STEP[len(step) - step.count(0)])
    return memoryview(masks.ravel()), tuple(offsets), tuple(costs)


def _box(boxes, step):
    """boxes[step], built on first use: True at a cell of the padded map
    iff every cell of the box that step (array axis order, -1, 0 or 1
    per axis) spans from it is in the padded map and free.  boxes holds
    the zero step's box, the padded free array.  The box over the axes
    a step changes is its box with its last changed axis a dropped,
    ANDed with that sub-box one cell along a: one AND per box, and a
    step over d axes shares its sub-boxes with the steps over d - 1."""
    box = boxes.get(step)
    if box is None:
        a = max(axis for axis, s in enumerate(step) if s)
        sub = _box(boxes, step[:a] + (0,) + step[a + 1:])
        n = sub.shape[a]
        near, far = [slice(None)] * len(step), [slice(None)] * len(step)
        near[a], far[a] = (slice(0, n - 1), slice(1, n))[::step[a]]
        box = boxes[step] = np.zeros_like(sub)
        np.logical_and(sub[tuple(near)], sub[tuple(far)], out=box[tuple(near)])
    return box


def astar_unit(blocked, masks, moves, source, goal):
    """The one exact search over the unit lattice: A* from flat id
    source over the unit moves of blocked, unit_moves' masks and a
    DecodedMoves of its offsets and costs, as the planners' own k = 1
    table holds them (GridMap.move_table(1).masks and .moves).  Toward
    a flat id goal its own heuristic, not the planners', is the exact
    obstacle-free distance of unit moves to goal: with the axis
    distances sorted as lo <= mid <= hi, lo * SQRT3 + (mid - lo) *
    SQRT2 + (hi - mid) in 3D and octile in 2D.  Both are consistent with
    the unit-move costs, so a settled cell's dist is exact and the
    search stops once goal is settled.  With goal = -1 the heuristic is
    zero and the search settles every reachable cell: a Dijkstra
    distance field.  The case is picked once per call, and each
    improving push computes its key inline, with no call: the 3D axis
    distances are sorted by three compare-and-swaps.  A blocked source
    reaches nothing.  Returns (dist, bp) as flat numpy arrays: dist is
    inf and bp -1 where no cell was reached, and bp holds predecessor
    flat ids, -1 at the source.  The table is checked apart from
    unit_moves (see the module docstring)."""
    n, source, goal = blocked.size, int(source), int(goal)
    dist = array("d", [math.inf]) * n
    bp = array("q", [-1]) * n
    if not blocked.flat[source]:
        w = blocked.shape[-1]
        wh = w * blocked.shape[-2]  # on a 2D map every z is 0
        gx, gy, gz = goal % w, goal % wh // w, goal // wh
        cube, flat = goal >= 0 and blocked.ndim == 3, goal >= 0 and blocked.ndim == 2
        sqrt2, sqrt3 = SQRT2, SQRT3
        done = bytearray(n)
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
    return np.frombuffer(dist, dtype=np.float64), np.frombuffer(bp, dtype=np.int64)


def dijkstra_2d(occ, w, h, sx, sy):
    """astar_unit's full field from (sx, sy) on a w x h map: (dist, bp)."""
    blocked = np.asarray(occ, dtype=bool).reshape(h, w)
    masks, offsets, costs = unit_moves(blocked)
    return astar_unit(blocked, masks, DecodedMoves(offsets, costs), sy * w + sx, -1)


def dijkstra_3d(occ, w, h, d, sx, sy, sz):
    """dijkstra_2d on a w x h x d map, 26-connected."""
    blocked = np.asarray(occ, dtype=bool).reshape(d, h, w)
    masks, offsets, costs = unit_moves(blocked)
    return astar_unit(blocked, masks, DecodedMoves(offsets, costs), (sz * h + sy) * w + sx, -1)


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
