"""Reference implementations used to check the package.

Two kinds live here.  The independent ones are built on different
primitives than the code under test: exact rational geometry
(fractions) for segment/cell intersection, scipy for graph search and
connectivity, the supercover segment walk and the Dijkstra over it,
and brute-force enumeration elsewhere.  The others are code that src/
replaced, kept verbatim (or marked "(adapted)") as the reference of
the replacement's differential test: one per layer, the newest, for
the move tables (full_move_table), the unit-lattice A*
(bits_astar_unit for its dist and bp, whole_map_astar_unit for the
oracle's answers), the search core (OpenList, FlatSearch, MraSearch),
the queue policies (RoundRobin, DynamicThompson, with which MraSearch
runs), the open list, the parsers, scenario sampling, path costs and
chain costs.  When a replaced path moves in here, any reference whose
outputs the new one pins on the same inputs leaves with its tests, and
tests/test_oracles.py fails on a name no test reaches.  Slow is fine;
these run on small inputs.
"""

import itertools
import math
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra as sp_dijkstra

from mrastar import kernels
from mrastar.errors import (
    MapParseError,
    ScenarioGenerationError,
    SearchCorruptionError,
)
from mrastar.grid import (
    Cell,
    GridMap,
    MoveTable,
    _lattice_total,
    directions,
    fine_components,
    path_cost,
)
from mrastar.kernels import SQRT2, SQRT3
from mrastar.kernels import STEP as _STEP
from mrastar.kernels import HIGH_BITS, MASK_BITS, MID_BITS, mask_bits
from mrastar.maps_io import Scenario
from mrastar.search import (
    STATUS_EXHAUSTED,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    PlannerConfig,
    PlanResult,
    Problem,
)


def octile_distance(a: Cell, b: Cell) -> float:
    """sqrt(2)*min(|dx|,|dy|) + ||dx|-|dy||, the exact obstacle-free
    distance between 2D cells under 8-connected unit moves."""
    lo, hi = sorted(abs(ca - cb) for ca, cb in zip(a, b))
    return lo * SQRT2 + (hi - lo)


def euclidean_distance(a: Cell, b: Cell) -> float:
    return math.hypot(*(ca - cb for ca, cb in zip(a, b)))


# The distance the planners' heuristic is, by name: octile on 2D cells,
# euclidean on 3D ones.
HEURISTICS = {"octile": octile_distance, "euclidean": euclidean_distance}


def segment_touches_box(a, b, lo, hi) -> bool:
    """Exact test: does the closed segment a->b intersect the closed box
    [lo, hi]?  Coordinates are integers or Fractions."""
    tmin = Fraction(0)
    tmax = Fraction(1)
    for ai, bi, l, h in zip(a, b, lo, hi):
        d = bi - ai
        if d == 0:
            if not (l <= ai <= h):
                return False
            continue
        t0 = Fraction(l - ai, d)
        t1 = Fraction(h - ai, d)
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > tmin:
            tmin = t0
        if t1 < tmax:
            tmax = t1
        if tmin > tmax:
            return False
    return True


def touched_cells(a, b) -> set:
    """All lattice cells whose closed unit cube the segment between cell
    centers a and b intersects (single-point touches count)."""
    ranges = [
        range(min(ai, bi) - 1, max(ai, bi) + 2) for ai, bi in zip(a, b)
    ]
    half = Fraction(1, 2)
    out = set()
    for cell in itertools.product(*ranges):
        lo = [c - half for c in cell]
        hi = [c + half for c in cell]
        if segment_touches_box(a, b, lo, hi):
            out.add(cell)
    return out


def sampled_cells(a, b, n=1000) -> set:
    """Cells hit by n evenly spaced point samples along the segment
    (coordinates rounded to the nearest integer).  A subset of
    touched_cells(a, b); may miss cells the segment barely clips."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ts = np.linspace(0.0, 1.0, n)
    pts = a[None, :] + ts[:, None] * (b - a)[None, :]
    cells = np.rint(pts).astype(int)
    return {tuple(int(v) for v in row) for row in cells}


def grid_cells(grid):
    if grid.dim == 2:
        w, h = grid.extents
        return [(x, y) for y in range(h) for x in range(w)]
    w, h, d = grid.extents
    return [(x, y, z) for z in range(d) for y in range(h) for x in range(w)]


def on_map(grid, cell) -> bool:
    """True iff cell has one coordinate per axis of grid, each in range."""
    return len(cell) == grid.dim and all(0 <= c < n for c, n in zip(cell, grid.extents))


def free(grid, cell) -> bool:
    """True iff cell is on the map (on_map) and not blocked, read from
    grid.blocked."""
    return on_map(grid, cell) and not grid.blocked[cell[::-1]]


def edge_free_exact(a, b, grid) -> bool:
    """Edge validity recomputed from exact geometry, not the kernels."""
    for cell in touched_cells(a, b):
        if not free(grid, cell):
            return False
    return True


_UNIT_COSTS = {1: 1.0, 2: float(np.sqrt(2.0)), 3: float(np.sqrt(3.0))}


def _unit_moves(dim):
    moves = [
        d for d in itertools.product((-1, 0, 1), repeat=dim) if any(d)
    ]
    return moves


def _unit_edge_free(cell, nb, mv, grid):
    # For a unit move the closed boxes a center-to-center segment touches
    # are exactly the endpoints plus, when m axes change (m >= 2), every
    # cell offset by a proper nonempty subset of the changed axes (the
    # segment midpoint lies on all their shared corners).
    axes = [ax for ax, m in enumerate(mv) if m]
    for r in range(1, len(axes)):
        for sub in itertools.combinations(axes, r):
            flank = tuple(
                c + (mv[ax] if ax in sub else 0) for ax, c in enumerate(cell)
            )
            if not free(grid, flank):
                return False
    return True


def reference_graph(grid):
    """Sparse free-cell graph with unit moves validated by closed-box
    touching (closed-form for unit moves; edge_free_exact agrees)."""
    n = grid.size
    rows, cols, data = [], [], []
    moves = _unit_moves(grid.dim)
    for cell in grid_cells(grid):
        if not free(grid, cell):
            continue
        u = grid.flat_index(cell)
        for mv in moves:
            nb = tuple(c + m for c, m in zip(cell, mv))
            if not free(grid, nb):
                continue
            if not _unit_edge_free(cell, nb, mv, grid):
                continue
            rows.append(u)
            cols.append(grid.flat_index(nb))
            data.append(_UNIT_COSTS[sum(1 for m in mv if m)])
    return csr_matrix((data, (rows, cols)), shape=(n, n))


def reference_distances(grid, source) -> np.ndarray:
    """Exact-ish (scipy float) shortest path distances from source over
    the reference graph, flat-indexed."""
    graph = reference_graph(grid)
    return sp_dijkstra(graph, indices=grid.flat_index(source))


# The supercover segment walk that decided moves in src/ before the box
# rule (kernels.move_free) replaced it, kept verbatim (renamed) as an
# independent encoding of the move rule: exact integer crossing
# arithmetic instead of per-cell unit boxes.


def walk_free_2d(occ, w, x0, y0, x1, y1):
    """True iff every cell whose closed unit square the segment from the
    center of (x0, y0) to the center of (x1, y1) intersects is free.

    When the segment passes exactly through a lattice corner, both cells
    flanking the crossing must be free (no squeezing through a corner).
    Caller guarantees both endpoints are in bounds.
    """
    if occ[y0 * w + x0] or occ[y1 * w + x1]:
        return False
    nx = x1 - x0
    ny = y1 - y0
    sx = 1 if nx > 0 else -1
    sy = 1 if ny > 0 else -1
    if nx < 0:
        nx = -nx
    if ny < 0:
        ny = -ny
    ix = 0
    iy = 0
    x = x0
    y = y0
    while ix < nx or iy < ny:
        # Compare the next vertical-crossing fraction (2*ix+1)/(2*nx)
        # with the next horizontal one; cross-multiplied to stay exact.
        d = (1 + 2 * ix) * ny - (1 + 2 * iy) * nx
        if d == 0:
            # Exact corner crossing: both flanking cells must be free.
            if occ[y * w + (x + sx)] or occ[(y + sy) * w + x]:
                return False
            x += sx
            y += sy
            ix += 1
            iy += 1
        elif d < 0:
            x += sx
            ix += 1
        else:
            y += sy
            iy += 1
        if occ[y * w + x]:
            return False
    return True


def walk_free_3d(occ, w, h, x0, y0, z0, x1, y1, z1):
    """3D analogue of walk_free_2d.

    At a crossing where two or three grid planes are met simultaneously,
    every cell reached by advancing a proper nonempty subset of the tied
    axes must be free as well.
    """
    if occ[(z0 * h + y0) * w + x0] or occ[(z1 * h + y1) * w + x1]:
        return False
    nx = x1 - x0
    ny = y1 - y0
    nz = z1 - z0
    sx = 1 if nx > 0 else -1
    sy = 1 if ny > 0 else -1
    sz = 1 if nz > 0 else -1
    if nx < 0:
        nx = -nx
    if ny < 0:
        ny = -ny
    if nz < 0:
        nz = -nz
    ix = 0
    iy = 0
    iz = 0
    x = x0
    y = y0
    z = z0
    while ix < nx or iy < ny or iz < nz:
        # Next crossing fraction per active axis is (2*i+1)/(2*n).
        mp = 0
        mq = 0
        if nx > 0 and ix < nx:
            mp = 1 + 2 * ix
            mq = 2 * nx
        if ny > 0 and iy < ny:
            p = 1 + 2 * iy
            q = 2 * ny
            if mq == 0 or p * mq < mp * q:
                mp = p
                mq = q
        if nz > 0 and iz < nz:
            p = 1 + 2 * iz
            q = 2 * nz
            if mq == 0 or p * mq < mp * q:
                mp = p
                mq = q
        stepx = nx > 0 and ix < nx and (1 + 2 * ix) * mq == mp * (2 * nx)
        stepy = ny > 0 and iy < ny and (1 + 2 * iy) * mq == mp * (2 * ny)
        stepz = nz > 0 and iz < nz and (1 + 2 * iz) * mq == mp * (2 * nz)
        nstep = 0
        if stepx:
            nstep += 1
        if stepy:
            nstep += 1
        if stepz:
            nstep += 1
        if nstep >= 2:
            if stepx and occ[(z * h + y) * w + (x + sx)]:
                return False
            if stepy and occ[(z * h + (y + sy)) * w + x]:
                return False
            if stepz and occ[((z + sz) * h + y) * w + x]:
                return False
            if nstep == 3:
                if occ[(z * h + (y + sy)) * w + (x + sx)]:
                    return False
                if occ[((z + sz) * h + y) * w + (x + sx)]:
                    return False
                if occ[((z + sz) * h + (y + sy)) * w + x]:
                    return False
        if stepx:
            x += sx
            ix += 1
        if stepy:
            y += sy
            iy += 1
        if stepz:
            z += sz
            iz += 1
        if occ[(z * h + y) * w + x]:
            return False
    return True


def walk_successors_2d(occ, w, h, x, y, k):
    """Valid 8-connected moves of length k from (x, y), as a list of
    (flat id, axes changed) pairs.

    Order is fixed: dy from -1 to 1 outer, dx inner, (0, 0) skipped.
    """
    out = []
    for dy in (-1, 0, 1):
        y1 = y + k * dy
        if y1 < 0 or y1 >= h:
            continue
        for dx in (-1, 0, 1):
            x1 = x + k * dx
            if (dx == 0 and dy == 0) or x1 < 0 or x1 >= w:
                continue
            if walk_free_2d(occ, w, x, y, x1, y1):
                out.append((y1 * w + x1, (dx != 0) + (dy != 0)))
    return out


def walk_successors_3d(occ, w, h, d, x, y, z, k):
    """26-connected analogue of walk_successors_2d; dz outermost."""
    out = []
    for dz in (-1, 0, 1):
        z1 = z + k * dz
        if z1 < 0 or z1 >= d:
            continue
        for dy in (-1, 0, 1):
            y1 = y + k * dy
            if y1 < 0 or y1 >= h:
                continue
            for dx in (-1, 0, 1):
                x1 = x + k * dx
                if (dx == 0 and dy == 0 and dz == 0) or x1 < 0 or x1 >= w:
                    continue
                if walk_free_3d(occ, w, h, x, y, z, x1, y1, z1):
                    out.append(((z1 * h + y1) * w + x1, (dx != 0) + (dy != 0) + (dz != 0)))
    return out


def supercover_dijkstra(occ, extents, source):
    """The oracle Dijkstra that the mask searches replaced, kept as the
    reference that the full distance fields (kernels.dijkstra_2d/3d) are
    checked against: heapq over the unit moves of the supercover walk
    (walk_successors_2d/3d at k=1), one walk per move of every settled
    cell.  source is a flat id; returns
    (dist, bp) like the kernels."""
    occ = np.asarray(occ, dtype=bool).ravel().tolist()
    w, h = extents[0], extents[1]
    wh = w * h

    def succ(u):
        if len(extents) == 2:
            return walk_successors_2d(occ, w, h, u % w, u // w, 1)
        return walk_successors_3d(occ, w, h, extents[2], u % w, u % wh // w, u // wh, 1)

    n, source = len(occ), int(source)
    dist = array("d", [math.inf]) * n
    bp = array("q", [-1]) * n
    if not occ[source]:
        done = bytearray(n)
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            du, u = heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            for v, m in succ(u):
                nd = du + kernels.STEP[m]
                if nd < dist[v]:
                    dist[v] = nd
                    bp[v] = u
                    heappush(heap, (nd, v))
    return np.frombuffer(dist, dtype=np.float64), np.frombuffer(bp, dtype=np.int64)


# kernels.astar_unit as it was before it relaxed through the table's
# decoded-move cache (kernels.DecodedMoves), kept verbatim (renamed) as
# the reference of that change's differential test (tests/test_kernels.py):
# it decodes each mask's bits itself, with the chunk tables.


def bits_astar_unit(blocked, masks, offsets, costs, source, goal):
    """The one exact search over the unit lattice: A* from flat id
    source over the unit moves of blocked, (masks, offsets, costs) as
    unit_moves returns them and the planners' own k = 1 table
    (GridMap.move_table(1)) holds them.  Toward a flat id goal its own
    heuristic, not the planners', is the exact obstacle-free distance
    of unit moves to goal: with the axis distances sorted as
    lo <= mid <= hi, lo * SQRT3 + (mid - lo) * SQRT2 + (hi - mid) in 3D
    and octile in 2D.  Both are consistent with the unit-move costs, so
    a settled cell's dist is exact and the search stops once goal is
    settled.  With goal = -1 the heuristic is zero and the search
    settles every reachable cell: a Dijkstra distance field.  A blocked source reaches nothing.  Returns (dist,
    bp) as flat numpy arrays: dist is inf and bp -1 where no cell was
    reached, and bp holds predecessor flat ids, -1 at the source.  The
    table is checked apart from unit_moves (see the module docstring)."""
    n, source, goal = blocked.size, int(source), int(goal)
    dist = array("d", [math.inf]) * n
    bp = array("q", [-1]) * n
    if not blocked.flat[source]:
        w = blocked.shape[-1]
        if goal < 0:
            def h(v):
                return 0.0
        elif blocked.ndim == 2:
            gx, gy = goal % w, goal // w

            def h(v):
                dx = abs(v % w - gx)
                dy = abs(v // w - gy)
                return dx * SQRT2 + (dy - dx) if dx < dy else dy * SQRT2 + (dx - dy)
        else:
            wh = w * blocked.shape[1]
            gx, gy, gz = goal % w, goal % wh // w, goal // wh

            def h(v):
                lo, mid, hi = sorted(
                    (abs(v % w - gx), abs(v % wh // w - gy), abs(v // wh - gz))
                )
                return lo * SQRT3 + (mid - lo) * SQRT2 + (hi - mid)

        done = bytearray(n)
        dist[source] = 0.0
        heap = [(h(source), source)]
        while heap:
            u = heappop(heap)[1]
            if done[u]:
                continue
            done[u] = 1
            if u == goal:
                break
            du = dist[u]
            m = masks[u]
            for b in (
                MASK_BITS[m] if m < 512
                else MASK_BITS[m & 511] + MID_BITS[m >> 9 & 511] + HIGH_BITS[m >> 18]
            ):
                v = u + offsets[b]
                nd = du + costs[b]
                if nd < dist[v]:
                    dist[v] = nd
                    bp[v] = u
                    heappush(heap, (nd + h(v), v))
    return np.frombuffer(dist, dtype=np.float64), np.frombuffer(bp, dtype=np.int64)


# kernels.astar_unit as it was before it ran on state its caller owns,
# kept verbatim (renamed) as the reference of that change's differential
# test (tests/test_baselines.py::test_baseline_properties): it allocates
# and fills whole-map dist, bp and done buffers on every call.


def whole_map_astar_unit(blocked, masks, moves, source, goal):
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


def reference_components(grid) -> np.ndarray:
    """Connected component id per flat cell over the reference graph;
    blocked cells get -1."""
    graph = reference_graph(grid)
    n_comp, labels = connected_components(graph, directed=False)
    labels = labels.astype(np.int64)
    free = ~grid.flat_blocked
    labels[~free] = -1
    return labels


def same_partition(a, b, mask) -> bool:
    """Do two labelings induce the same partition on the masked cells?"""
    fwd = {}
    bwd = {}
    for x, y in zip(a[mask], b[mask]):
        if fwd.setdefault(x, y) != y:
            return False
        if bwd.setdefault(y, x) != x:
            return False
    return True


# The addressable binary heap that search.OpenList replaced (sift code in
# Python, one heap slot per state, updates in place).  Kept as the
# reference the lazy-deletion OpenList is checked against.
class AddressableOpenList:
    """Addressable binary min-heap of states.

    Orders by (key, -g, state id): equal keys prefer the larger g (the
    deeper, better-informed state), then the smaller id, making pops
    fully deterministic.  Holds at most one entry per state; inserting
    an existing state updates it in place.
    """

    __slots__ = ("_heap", "_pos")

    def __init__(self):
        self._heap: list[tuple[float, float, int]] = []
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, sid: int) -> bool:
        return sid in self._pos

    def min_key(self) -> float:
        return self._heap[0][0] if self._heap else math.inf

    def peek(self) -> int:
        if not self._heap:
            raise IndexError("peek on empty open list")
        return self._heap[0][2]

    def insert_or_update(self, sid: int, key: float, g: float) -> None:
        entry = (key, -g, sid)
        pos = self._pos.get(sid)
        if pos is None:
            self._heap.append(entry)
            self._sift_up(len(self._heap) - 1)
        else:
            old = self._heap[pos]
            self._heap[pos] = entry
            if entry < old:
                self._sift_up(pos)
            else:
                self._sift_down(pos)

    def pop(self) -> int:
        if not self._heap:
            raise IndexError("pop on empty open list")
        top = self._heap[0]
        last = self._heap.pop()
        del self._pos[top[2]]
        if self._heap:
            self._heap[0] = last
            self._pos[last[2]] = 0
            self._sift_down(0)
        return top[2]

    def _sift_up(self, i: int) -> None:
        heap = self._heap
        entry = heap[i]
        while i > 0:
            parent = (i - 1) // 2
            if heap[parent] <= entry:
                break
            heap[i] = heap[parent]
            self._pos[heap[i][2]] = i
            i = parent
        heap[i] = entry
        self._pos[entry[2]] = i

    def _sift_down(self, i: int) -> None:
        heap = self._heap
        n = len(heap)
        entry = heap[i]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            child = left
            right = left + 1
            if right < n and heap[right] < heap[left]:
                child = right
            if entry <= heap[child]:
                break
            heap[i] = heap[child]
            self._pos[heap[i][2]] = i
            i = child
        heap[i] = entry
        self._pos[entry[2]] = i


# ------------------------------------------------------------------------
# The per-element set-up code that the whole-array parsers, scenario
# sampler and move-table builder replaced, and the path_cost that built
# lists per edge.  Kept verbatim (renamed) as the references the
# replacements are checked against, byte for byte.

MOVINGAI_FREE = frozenset(".GS")
MOVINGAI_BLOCKED = frozenset("@OTW")


def per_glyph_parse_movingai_map(text: str) -> GridMap:
    """Parse the 2D benchmark map format; raises MapParseError with a
    1-based line (and column, for glyph errors) on malformed input."""
    lines = text.splitlines()

    def want(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise MapParseError(f"missing {what}", idx + 1)
        return lines[idx].rstrip("\r")

    header = want(0, "'type octile' header")
    if header.split() != ["type", "octile"]:
        raise MapParseError(f"expected 'type octile', got {header!r}", 1)

    def dim_line(idx: int, name: str) -> int:
        raw = want(idx, f"'{name} N' header")
        parts = raw.split()
        if len(parts) != 2 or parts[0] != name:
            raise MapParseError(f"expected '{name} N', got {raw!r}", idx + 1)
        try:
            value = int(parts[1])
        except ValueError:
            raise MapParseError(f"bad {name} value {parts[1]!r}", idx + 1) from None
        if value < 1:
            raise MapParseError(f"{name} must be positive, got {value}", idx + 1)
        return value

    height = dim_line(1, "height")
    width = dim_line(2, "width")
    if want(3, "'map' header") != "map":
        raise MapParseError(f"expected 'map', got {lines[3]!r}", 4)

    blocked = np.zeros((height, width), dtype=bool)
    for y in range(height):
        row = want(4 + y, f"map row {y + 1} of {height}").rstrip("\r")
        if len(row) != width:
            raise MapParseError(
                f"row has {len(row)} glyphs, expected {width}",
                5 + y,
                min(len(row), width) + 1,
            )
        for x, ch in enumerate(row):
            if ch in MOVINGAI_BLOCKED:
                blocked[y, x] = True
            elif ch not in MOVINGAI_FREE:
                raise MapParseError(f"unknown glyph {ch!r}", 5 + y, x + 1)
    for extra in range(4 + height, len(lines)):
        if lines[extra].strip():
            raise MapParseError("unexpected content after map rows", extra + 1)
    return GridMap((width, height), blocked)




def per_glyph_parse_vox3(text: str) -> GridMap:
    """Parse the 3D slice format; raises MapParseError on malformed input."""
    lines = [ln.rstrip("\r") for ln in text.splitlines()]
    if not lines:
        raise MapParseError("missing 'vox3 W H D' header", 1)
    parts = lines[0].split()
    if len(parts) != 4 or parts[0] != "vox3":
        raise MapParseError(f"expected 'vox3 W H D', got {lines[0]!r}", 1)
    try:
        w, h, d = (int(p) for p in parts[1:])
    except ValueError:
        raise MapParseError(f"bad dimensions in {lines[0]!r}", 1) from None
    if min(w, h, d) < 1:
        raise MapParseError(f"dimensions must be positive, got {w}x{h}x{d}", 1)

    blocked = np.zeros((d, h, w), dtype=bool)
    idx = 1
    for z in range(d):
        if z > 0:
            if idx >= len(lines) or lines[idx].strip():
                raise MapParseError(f"expected blank line before slice {z + 1}", idx + 1)
            idx += 1
        for y in range(h):
            if idx >= len(lines):
                raise MapParseError(
                    f"missing row {y + 1} of slice {z + 1}", len(lines) + 1
                )
            row = lines[idx]
            if len(row) != w:
                raise MapParseError(
                    f"row has {len(row)} glyphs, expected {w}",
                    idx + 1,
                    min(len(row), w) + 1,
                )
            for x, ch in enumerate(row):
                if ch == "#":
                    blocked[z, y, x] = True
                elif ch != ".":
                    raise MapParseError(f"unknown glyph {ch!r}", idx + 1, x + 1)
            idx += 1
    for extra in range(idx, len(lines)):
        if lines[extra].strip():
            raise MapParseError("unexpected content after last slice", extra + 1)
    return GridMap((w, h, d), blocked)




def per_draw_gen_scenarios(
    grid: GridMap,
    count: int,
    seed: int,
    map_id: str = "map",
    max_attempts: int = 10**6,
) -> list[Scenario]:
    """Sample `count` start/goal pairs of free cells in the same fine
    connected component, by rejection from a seeded generator.

    The pairs live on the unit lattice; planners that need sublattice
    endpoints reject unsuitable pairs themselves.  Raises
    ScenarioGenerationError when the attempt budget runs out.
    """
    free = np.flatnonzero(~grid.flat_blocked)
    if len(free) < 2:
        raise ScenarioGenerationError(
            f"map has {len(free)} free cells; need at least 2"
        )
    labels = fine_components(grid).ravel()
    rng = np.random.default_rng(seed)
    out: list[Scenario] = []
    attempts = 0
    chunk = 1024  # draws are batched; the accept/reject order is fixed
    while len(out) < count:
        if attempts >= max_attempts:
            raise ScenarioGenerationError(
                f"found {len(out)}/{count} connected pairs in {attempts} attempts"
            )
        n = min(chunk, max_attempts - attempts)
        draws = rng.integers(0, len(free), size=(n, 2))
        for a, b in draws:
            attempts += 1
            sa, sb = int(free[a]), int(free[b])
            if sa == sb or labels[sa] != labels[sb]:
                continue
            out.append(
                Scenario(map_id, len(out), grid.cell_of(sa), grid.cell_of(sb), seed)
            )
            if len(out) == count:
                break
    return out




# maps_io.Scenario as it was before it became a tuple, kept verbatim
# (renamed) as the reference of its parity test (tests/test_maps_io.py).
@dataclass(frozen=True)
class DataclassScenario:
    map_id: str
    index: int
    start: Cell
    goal: Cell
    seed: int


def _window_and(u: np.ndarray, o: int, k: int) -> np.ndarray:
    """out[c] = all(u[c + t*o] for t in range(k)) over flat ids c, and
    False where c + (k-1)*o leaves u; by doubling, on slices of u.

    For unit-move bits a window that wraps past a row edge is harmless:
    the first unit move along it that leaves the map is already False at
    the last cell inside, so the wrapped reads never decide a result."""
    n, p = len(u), abs(o)
    span = (k - 1) * p
    out = np.zeros(n, bool)
    if span >= n:
        return out
    m = n - span
    # fwd[c] = all(u[c + t*p] for t < k), c < m.  block[c] holds the
    # window of `width` reads from c; it is valid for c < len(block).
    fwd = None
    covered, width, block = 0, 1, u
    while True:
        if k & 1:
            part = block[covered * p:covered * p + m]
            fwd = part if fwd is None else fwd & part
            covered += width
        k >>= 1
        if not k:
            break
        block = block[:len(block) - width * p] & block[width * p:]
        width *= 2
    if o > 0:
        out[:m] = fwd
    else:  # all(u[c - t*p] for t < k) = fwd[c - span]
        out[span:] = fwd
    return out


def full_move_table(grid: GridMap, k: int, unit: MoveTable | None) -> MoveTable:
    """grid._build_move_table before coarse tables were built on their
    sublattice only, kept verbatim (renamed) as the reference that the
    sublattice builder and the plans over it are checked against: its
    k > 1 tables hold moves at every cell.

    A unit move is valid iff every cell of the box it spans is free
    (for a diagonal that is both flanks: the corner rule).  King moves
    of length k run along the line of k unit moves, so a length-k move
    is valid iff those k unit moves all are.  unit, the k = 1 table,
    supplies the unit moves when k > 1.  A direction that steps along
    an axis no longer than k leaves the map from every cell, so its bit
    stays 0 without any array work."""
    dirs = directions(grid.dim)
    dtype = np.uint8 if grid.dim == 2 else np.uint32
    shape = grid.blocked.shape
    strides = [math.prod(grid.extents[:axis]) for axis in range(grid.dim)]
    offsets = [k * sum(v * st for v, st in zip(vec, strides)) for vec in dirs]
    costs = [k * _STEP[sum(1 for v in vec if v)] for vec in dirs]
    live = [
        b for b, vec in enumerate(dirs)
        if not any(v and n <= k for v, n in zip(vec, grid.extents))
    ]
    if unit is None:
        # Each cell of a unit move's box is a slice of the zero-padded
        # free array, shifted by one corner of the step.
        free = np.pad(~grid.blocked, 1)
        masks = np.zeros(shape, dtype)
        for b in live:
            step = tuple(reversed(dirs[b]))  # array axis order
            ok = np.ones(shape, bool)
            for corner in itertools.product(*((0, s) if s else (0,) for s in step)):
                ok &= free[tuple(slice(1 + c, 1 + c + n) for c, n in zip(corner, shape))]
            masks |= ok.astype(dtype) << b
        masks = masks.ravel()
    else:
        unit_masks = np.frombuffer(unit.masks, dtype)
        masks = np.zeros(grid.size, dtype)
        for b in live:
            ok = _window_and(unit_masks & (1 << b) != 0, offsets[b] // k, k)
            masks |= ok.astype(dtype) << b
    return MoveTable(k, memoryview(masks), tuple(offsets), tuple(costs))


def listwise_edge_decomposition(a: Cell, b: Cell) -> tuple[int, int]:
    """(scale, changed-axis count) of the lattice move a->b.

    Every legal move changes some subset of axes by the same magnitude k;
    raises if a->b is not of that form.
    """
    deltas = [abs(ca - cb) for ca, cb in zip(a, b)]
    nonzero = [d for d in deltas if d != 0]
    if len(a) != len(b) or not nonzero:
        raise ValueError(f"{a}->{b} is not a lattice move")
    k = nonzero[0]
    if any(d != k for d in nonzero):
        raise ValueError(f"{a}->{b} mixes step magnitudes {sorted(set(nonzero))}")
    return k, len(nonzero)


def listwise_path_cost(path: list[Cell]) -> float:
    """Total cost of a move sequence.

    Each edge costs k*sqrt(m) for m changed axes, so the sum decomposes
    into integer multiples of 1, sqrt(2) and sqrt(3).  Accumulating the
    integer parts first makes the float result independent of edge order,
    so equal-cost paths produce bitwise-equal totals.
    """
    if len(path) < 2:
        return 0.0
    a1 = a2 = a3 = 0
    for u, v in zip(path, path[1:]):
        k, m = listwise_edge_decomposition(u, v)
        if m == 1:
            a1 += k
        elif m == 2:
            a2 += k
        else:
            a3 += k
    return (float(a1) + a2 * SQRT2) + a3 * SQRT3


# grid.chain_cost and the cell list of search.FlatSearch.result, as they
# were before grid.walk_chain took a solved search's cells and cost in
# one walk back along its predecessor map; kept verbatim (the cell list
# as chain_cells) as the reference of walk_chain's differential test
# (tests/test_grid.py).


def chain_cost(grid: GridMap, chain) -> float:
    """path_cost of the cells of a chain of grid's flat ids, read from
    each step's coordinate deltas without building a cell: a step that
    changes m axes by k adds k to the sum of the m-axis moves.  Every
    step must be a lattice move (a search's predecessor chain is); it
    is not checked."""
    w = grid.extents[0]
    wh = w * grid.extents[1]  # on a 2D map every z is 0
    per_axes = [0, 0, 0, 0]
    for u, v in zip(chain, chain[1:]):
        dx, dy, dz = abs(v % w - u % w), abs(v % wh // w - u % wh // w), abs(v // wh - u // wh)
        per_axes[(dx > 0) + (dy > 0) + (dz > 0)] += dx or dy or dz
    return _lattice_total(*per_axes[1:])


def chain_cells(grid: GridMap, chain) -> list[Cell]:
    """(adapted) was path=[self.grid.cell_of(s) for s in chain] in
    search.FlatSearch.result."""
    return [grid.cell_of(s) for s in chain]


# search.OpenList and search.FlatSearch (with MraSearch on top) as they
# were before FlatSearch.run fused expand and the open-list pushes into
# its loop, kept verbatim as the old core of that loop's differential
# test (tests/test_search_loop.py).  search._TableSets, which picked
# wa_union's tables per space mask until FlatSearch took one tuple of
# tables per queue, is kept with them, and so are grid.flat_heuristic
# and search.check_deadline, which it called, from before the search took
# its start's h from grid.heuristic and read its deadline inline.


def flat_heuristic(grid: GridMap, goal: Cell):
    """The planners' h(flat id), fixed by the map: octile distance on a
    2D map, euclidean on a 3D one.  It is the same float as
    heuristic(grid.cell_of(id), goal), computed without building the
    cell tuple.  search.FlatSearch keys its start and goal with it, and
    its run computes every other state's h inline by these same
    expressions."""
    w = grid.extents[0]
    if grid.dim == 2:
        gx, gy = goal

        def octile(sid: int) -> float:
            dx = abs(sid % w - gx)
            dy = abs(sid // w - gy)
            if dx < dy:
                return dx * SQRT2 + (dy - dx)
            return dy * SQRT2 + (dx - dy)

        return octile
    gx, gy, gz = goal
    wh = w * grid.extents[1]
    return lambda sid: math.hypot(sid % w - gx, sid % wh // w - gy, sid // wh - gz)


def check_deadline(
    expansion_count: int, started_at: float, timeout: float, now_fn=time.monotonic
) -> bool:
    """True iff the wall clock has exceeded timeout.

    Only consults the clock every 1000 expansions to keep its overhead
    out of the inner loop; an infinite timeout never triggers.
    """
    due = expansion_count % 1000 == 0 and not math.isinf(timeout)
    return due and now_fn() - started_at > timeout


class _TableSets(dict):
    """Space mask -> the tables of its set bits, in scale order, built
    the first time a state with that mask is expanded, so that a query
    builds only the sets its states use, however long the ladder."""

    def __init__(self, tables):
        self.tables = tables

    def __missing__(self, m: int):
        self[m] = sets = tuple(self.tables[b] for b in mask_bits(m))
        return sets


class OpenList:
    """Min-priority queue of states with lazy deletion.

    Orders by (key, -g, state id): equal keys prefer the larger g (the
    deeper, better-informed state), then the smaller id, making pops
    fully deterministic.  Holds at most one live entry per state:
    inserting an existing state pushes a new entry and marks it live,
    and the superseded one stays in the heap until it reaches the top,
    where pop, peek and min_key discard it (the test is by identity, so
    an equal-valued superseded entry is dropped too).  Stale entries
    are therefore bounded by the inserts of one search.
    """

    __slots__ = ("_heap", "_live")

    def __init__(self):
        self._heap: list[tuple[float, float, int]] = []
        self._live: dict[int, tuple[float, float, int]] = {}

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, sid: int) -> bool:
        return sid in self._live

    def _top(self):
        """The live minimum entry, or None; drops stale entries above it."""
        heap, live = self._heap, self._live
        while heap:
            top = heap[0]
            if live.get(top[2]) is top:
                return top
            heappop(heap)
        return None

    def min_key(self) -> float:
        top = self._top()
        return math.inf if top is None else top[0]

    def peek(self) -> int:
        top = self._top()
        if top is None:
            raise IndexError("peek on empty open list")
        return top[2]

    def insert_or_update(self, sid: int, key: float, g: float) -> None:
        self._live[sid] = entry = (key, -g, sid)
        heappush(self._heap, entry)

    def pop(self) -> int:
        heap, live = self._heap, self._live
        while heap:
            top = heappop(heap)
            sid = top[2]
            if live.get(sid) is top:
                del live[sid]
                return sid
        raise IndexError("pop on empty open list")


class FlatSearch:
    """The one search core: a state table over flat cell ids and the
    best-first loop (run) that MRA* and the single-queue baselines share.

    g, bp and h map a flat id to its cost-to-come, backpointer and
    heuristic; a state is generated once it has an h entry (start and
    goal from the outset), so generated == len(h).  closed maps a flat
    id to the bitmask of queues that expanded it.  Moves come from the
    grid's cached MoveTables, one per entry of scales, decoded in
    direction order.  Queue j keys a state g + weights[j] * h.

    queue_masks gives, per flat id, the queues an improved state (and
    the start) enters unless already closed there; None means queue 0
    alone.  Queue i expands a state with the scale-i table, or, given
    table_masks, with the tables whose bits the state's mask sets, in
    scale order.  bound gates the coarse queues (see run) and is the
    suboptimality factor a solved result reports; timeout is in seconds.
    A subclass with coarse queues sets policy, which picks among them.
    """

    policy = None

    def __init__(self, grid: GridMap, start: Cell, goal: Cell, scales, weights,
                 bound: float, timeout: float = math.inf,
                 queue_masks=None, table_masks=None):
        self.grid = grid
        self.tables = [grid.move_table(k) for k in scales]
        self.weights = tuple(weights)
        self.bound = bound
        self.timeout = timeout
        self.opens = [OpenList() for _ in self.weights]
        self.expansions = [0] * len(self.weights)
        self._queue_masks = queue_masks
        self._table_masks = table_masks
        self._choice = [(t,) for t in self.tables] if table_masks is None else _TableSets(self.tables)
        self._h_of = flat_heuristic(grid, goal)
        self.expansion_log: list[tuple[int, Cell]] | None = None
        self.start_id = grid.flat_index(start)
        self.goal_id = grid.flat_index(goal)
        self.g = {self.start_id: 0.0}
        self.h = {self.start_id: self._h_of(self.start_id)}
        self.bp: dict[int, int] = {}
        self.closed: dict[int, int] = {}
        self.g.setdefault(self.goal_id, math.inf)
        self.h.setdefault(self.goal_id, self._h_of(self.goal_id))
        h0 = self.h[self.start_id]
        for j in mask_bits(1 if queue_masks is None else queue_masks[self.start_id]):
            self.opens[j].insert_or_update(self.start_id, self.weights[j] * h0, 0.0)

    @property
    def generated(self) -> int:
        return len(self.h)

    def expand(self, sid: int, i: int, tables) -> None:
        """Close sid in queue i and relax its moves from each of tables
        in turn: an improved successor takes the new g and backpointer
        and enters every queue of its mask that has not closed it."""
        closed = self.closed
        c = closed.get(sid, 0)
        if c >> i & 1:
            raise SearchCorruptionError(
                f"state {self.grid.cell_of(sid)} expanded twice by queue {i}"
            )
        closed[sid] = c | 1 << i
        self.expansions[i] += 1
        if self.expansion_log is not None:
            self.expansion_log.append((i, self.grid.cell_of(sid)))
        g, h, bp, h_of = self.g, self.h, self.bp, self._h_of
        opens, weights, qmasks = self.opens, self.weights, self._queue_masks
        g_s = g[sid]
        for table in tables:
            m = table.masks[sid]
            offsets, costs = table.offsets, table.costs
            for b in (
                MASK_BITS[m] if m < 512
                else MASK_BITS[m & 511] + MID_BITS[m >> 9 & 511] + HIGH_BITS[m >> 18]
            ):
                nid = sid + offsets[b]
                ng = g_s + costs[b]
                gn = g.get(nid)
                if gn is None:
                    h[nid] = hn = h_of(nid)
                elif ng < gn:
                    hn = h[nid]
                else:
                    continue
                g[nid] = ng
                bp[nid] = sid
                targets = (1 if qmasks is None else qmasks[nid]) & ~closed.get(nid, 0)
                for j in MASK_BITS[targets] if targets < 512 else mask_bits(targets):
                    opens[j].insert_or_update(nid, ng + weights[j] * hn, ng)

    def run(self, log_expansions: bool = False) -> PlanResult:
        """Search until a queue claims the goal, the timeout passes or
        every queue is empty.

        Each iteration the policy picks a nonempty coarse queue i, which
        expands while its best key mk_i <= bound * mk0, the anchor's best
        key; otherwise, or with every coarse queue empty, the anchor
        expands.  Before popping, the expanding queue claims the goal
        once g(goal) <= its key (bound * mk0 when the anchor steps in
        for a blocked pick); a key that overflowed to inf claims nothing.
        With one queue the gate always passes (mk0 <= bound * mk0), so
        this is weighted A*.  The clock is read every 1000 expansions.
        """
        self.expansion_log = [] if log_expansions else None
        started = time.monotonic()
        t0 = time.perf_counter()
        opens = self.opens
        anchor = opens[0]
        coarse = range(1, len(opens))
        # Emptiness is read from the live-entry dicts, in C, rather than
        # through OpenList.__len__.
        live = [ol._live for ol in opens]
        anchor_live = live[0]
        if coarse:
            policy = self.policy
            choose_queue, update, feedback = policy.choose_queue, policy.update, policy.feedback
        g, h, goal_id = self.g, self.h, self.goal_id
        expand, expansions = self.expand, self.expansions
        choice, masks = self._choice, self._table_masks
        bound, timeout = self.bound, self.timeout
        timed = timeout < math.inf
        inf = math.inf
        nonempty = ()
        i, ol = 0, anchor  # the expanding queue, back to the anchor after each coarse step
        while True:
            if coarse:
                nonempty = [j for j in coarse if live[j]]
            if not anchor_live and not nonempty:
                break
            if timed and check_deadline(sum(expansions), started, timeout):
                return self.result(STATUS_TIMEOUT, None, t0)
            mk = anchor.min_key()
            if nonempty:
                mk0 = mk
                i = choose_queue(nonempty)
                ol = opens[i]
                mk = ol.min_key()
                if mk > bound * mk0:  # the gate blocks i: the anchor expands
                    i, ol, mk = 0, anchor, bound * mk0
            if g[goal_id] <= mk < inf:
                return self.result(STATUS_SOLVED, i, t0)
            sid = ol.pop()
            expand(sid, i, choice[i] if masks is None else choice[masks[sid]])
            if i:
                if feedback:
                    update(i, h[ol.peek()] if ol else inf)
                i, ol = 0, anchor
        if g[goal_id] < inf:
            # The goal sits in the anchor keyed g(goal) from the moment it
            # is reached, and every queue claims it before popping it.
            raise SearchCorruptionError("queues drained with the goal reached but unclaimed")
        return self.result(STATUS_EXHAUSTED, None, t0)

    def reconstruct_path(self) -> list[Cell]:
        """Follow backpointers from the goal to the start."""
        chain = []
        sid = self.goal_id
        limit = len(self.g) + 1
        while sid != self.start_id:
            chain.append(sid)
            sid = self.bp.get(sid, -1)
            if sid < 0 or len(chain) > limit:
                raise SearchCorruptionError("broken backpointer chain at goal")
        chain.append(self.start_id)
        chain.reverse()
        return [self.grid.cell_of(s) for s in chain]

    def result(self, status: str, winning_queue: int | None, t0: float) -> PlanResult:
        wall = time.perf_counter() - t0
        solved = status == STATUS_SOLVED
        path = self.reconstruct_path() if solved else []
        return PlanResult(
            status=status,
            path=path,
            cost=path_cost(path) if solved else math.inf,
            expansions=list(self.expansions),
            generated=self.generated,
            wall_time=wall,
            winning_queue=winning_queue,
            bound=self.bound if solved else None,
            expansion_log=self.expansion_log,
        )


class RoundRobin:
    """Cycle through the inadmissible queues in index order, skipping
    empty ones."""

    feedback = False

    def __init__(self, n_queues: int, seed: int = 0):
        self._cursor = 0

    def choose_queue(self, nonempty: list[int]) -> int:
        """Smallest index in nonempty (nonempty, ascending) strictly
        after the cursor, wrapping around."""
        pick = min((i for i in nonempty if i > self._cursor), default=min(nonempty))
        self._cursor = pick
        return pick

    def update(self, i: int, top_h: float) -> None:
        pass


class DynamicThompson:
    """Thompson sampling over queues with capped Beta posteriors.

    Each queue i keeps a Beta(alpha_i, beta_i) belief about how often
    servicing it makes progress.  A round is a success when the heuristic
    of the queue's best state drops below the best value that queue has
    ever exposed.  Posterior mass is capped at cap so the belief keeps
    adapting (when alpha+beta exceeds cap both are rescaled by
    cap/(cap+1)).  The generator is built on the first draw, so a query
    whose coarse queues stay empty never pays for it.
    """

    feedback = True
    cap = 10.0

    def __init__(self, n_queues: int, seed: int = 0):
        self.seed = seed
        self.alpha = [1.0] * (n_queues + 1)
        self.beta = [1.0] * (n_queues + 1)
        self.best_h = [math.inf] * (n_queues + 1)
        self.rng = None

    def choose_queue(self, nonempty: list[int]) -> int:
        """Sample the Beta belief of each queue in nonempty (nonempty,
        ascending) in order and pick the argmax; ties go to the smallest
        index."""
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        best = 0
        best_theta = -1.0
        for i in nonempty:
            theta = float(self.rng.beta(self.alpha[i], self.beta[i]))
            if theta > best_theta:
                best_theta = theta
                best = i
        return best

    def update(self, i: int, top_h: float) -> None:
        """Record the outcome of servicing queue i whose best open state
        now has heuristic top_h."""
        if top_h < self.best_h[i]:
            r = 1.0
            self.best_h[i] = top_h
        else:
            r = 0.0
        a, b = self.alpha[i], self.beta[i]
        if a + b < self.cap:
            self.alpha[i] = a + r
            self.beta[i] = b + (1.0 - r)
        else:
            scale = self.cap / (self.cap + 1.0)
            self.alpha[i] = (a + r) * scale
            self.beta[i] = (b + (1.0 - r)) * scale


# was mrastar.policies.POLICIES
POLICIES = {"round_robin": RoundRobin, "dts": DynamicThompson}


class MraSearch(FlatSearch):
    """One MRA* run; see plan() for the usual entry point.

    Queue i searches ladder level i: it keys states g + w1 * h (the
    anchor, queue 0, g + h), expands them with the scale-i move table
    and holds only states on the level's sublattice.  w2 is the gate
    bound and the policy picks among the coarse queues.  The instance
    keeps its full state (open lists, state table, counters) after
    run() returns, which the tests use to poke at internals.
    """

    def __init__(self, problem: Problem, config: PlannerConfig | None = None):
        self.problem = problem
        self.config = config = config or PlannerConfig()
        mults = problem.ladder.multipliers
        super().__init__(
            problem.grid, problem.start, problem.goal,
            mults, (1.0,) + (config.w1,) * (len(mults) - 1), bound=config.w2,
            timeout=config.timeout, queue_masks=problem.grid.space_masks(mults),
        )
        # (adapted) was make_policy(config.policy, max(1, len(mults) - 1), config.seed)
        self.policy = POLICIES[config.policy](len(mults) - 1, config.seed)
