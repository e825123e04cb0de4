"""Independent reference implementations used to check the package.

Everything here is deliberately built on different primitives than the
code under test: exact rational geometry (fractions) for segment/cell
intersection, scipy for graph search and connectivity, and brute-force
enumeration elsewhere.  Slow is fine; these run on small inputs.
"""

import itertools
import math
from array import array
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra as sp_dijkstra

from mrastar import kernels


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


def edge_free_exact(a, b, grid) -> bool:
    """Edge validity recomputed from exact geometry, not the kernels."""
    for cell in touched_cells(a, b):
        if not grid.is_free(cell):
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
            if not grid.is_free(flank):
                return False
    return True


def reference_graph(grid):
    """Sparse free-cell graph with unit moves validated by closed-box
    touching (closed-form for unit moves; edge_free_exact agrees)."""
    n = grid.size
    rows, cols, data = [], [], []
    moves = _unit_moves(grid.dim)
    for cell in grid_cells(grid):
        if not grid.is_free(cell):
            continue
        u = grid.flat_index(cell)
        for mv in moves:
            nb = tuple(c + m for c, m in zip(cell, mv))
            if not grid.is_free(nb):
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


def supercover_dijkstra(occ, extents, source, goal):
    """The oracle Dijkstra that kernels.dijkstra_2d/3d replaced, kept as
    the reference they are checked against: heapq over the unit moves of
    the supercover walk (kernels.successors_2d/3d at k=1), one walk per
    move of every settled cell.  source and goal are flat ids (goal = -1
    for a full field); returns (dist, bp) like the kernels."""
    occ = np.asarray(occ, dtype=bool).ravel().tolist()
    w, h = extents[0], extents[1]
    wh = w * h

    def succ(u):
        if len(extents) == 2:
            return kernels.successors_2d(occ, w, h, u % w, u // w, 1)
        return kernels.successors_3d(occ, w, h, extents[2], u % w, u % wh // w, u // wh, 1)

    n, source, goal = len(occ), int(source), int(goal)
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
            if u == goal:
                break
            for v, m in succ(u):
                nd = du + kernels.STEP[m]
                if nd < dist[v]:
                    dist[v] = nd
                    bp[v] = u
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
