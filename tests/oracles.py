"""Independent reference implementations used to check the package.

Everything here is deliberately built on different primitives than the
code under test: exact rational geometry (fractions) for segment/cell
intersection, scipy for graph search and connectivity, and brute-force
enumeration elsewhere.  Slow is fine; these run on small inputs.
"""

import itertools
import math
import time
from array import array
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra as sp_dijkstra

from mrastar import kernels
from mrastar.errors import MapParseError, ScenarioGenerationError
from mrastar.grid import Cell, GridMap, MoveTable, directions, fine_components
from mrastar.kernels import SQRT2, SQRT3
from mrastar.kernels import STEP as _STEP
from mrastar.kernels import mask_bits
from mrastar.maps_io import Scenario
from mrastar.search import (
    STATUS_EXHAUSTED,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    FlatSearch,
    PlanResult,
    check_deadline,
)


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




def _shifted(a: np.ndarray, off: tuple[int, ...]) -> np.ndarray:
    """out[c] = a[c + off] where c + off is inside a, else False; off is
    in array axis order."""
    out = np.zeros_like(a)
    if any(abs(o) >= n for o, n in zip(off, a.shape)):
        return out
    src = tuple(slice(max(o, 0), n + min(o, 0)) for o, n in zip(off, a.shape))
    dst = tuple(slice(max(-o, 0), n + min(-o, 0)) for o, n in zip(off, a.shape))
    out[dst] = a[src]
    return out


def _shifted_window_and(u: np.ndarray, step: tuple[int, ...], k: int) -> np.ndarray:
    """out[c] = all(u[c + t*step] for t in range(k)), by doubling."""
    out = None
    covered = 0
    block, width = u, 1
    while True:
        if k & 1:
            if out is None:
                out = block
            else:
                out = out & _shifted(block, tuple(covered * s for s in step))
            covered += width
        k >>= 1
        if not k:
            return out
        block = block & _shifted(block, tuple(width * s for s in step))
        width *= 2


def shifted_move_table(grid: GridMap, k: int, unit: MoveTable | None) -> MoveTable:
    """A unit move is valid iff every cell of the box it spans is free
    (for a diagonal that is both flanks: the corner rule).  King moves
    of length k run along the line of k unit moves, so a length-k move
    is valid iff those k unit moves all are.  unit, the k = 1 table,
    supplies the unit moves when k > 1."""
    dirs = directions(grid.dim)
    dtype = np.uint8 if grid.dim == 2 else np.uint32
    shape = grid.blocked.shape
    free = ~grid.blocked
    masks = np.zeros(shape, dtype)
    unit_masks = None
    if unit is not None:
        unit_masks = np.frombuffer(unit.masks, dtype).reshape(shape)
    strides = [math.prod(grid.extents[:axis]) for axis in range(grid.dim)]
    offsets, costs = [], []
    for b, vec in enumerate(dirs):
        step = tuple(reversed(vec))  # array axis order
        if unit_masks is None:
            ok = free.copy()
            for corner in itertools.product(*((0, s) if s else (0,) for s in step)):
                if any(corner):
                    ok &= _shifted(free, corner)
        else:
            ok = unit_masks & (1 << b) != 0
        if k > 1:
            ok = _shifted_window_and(ok, step, k)
        masks |= ok.astype(dtype) << b
        offsets.append(k * sum(v * st for v, st in zip(vec, strides)))
        costs.append(k * _STEP[sum(1 for v in vec if v)])
    return MoveTable(k, memoryview(masks.ravel()), tuple(offsets), tuple(costs))




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


# The two best-first loops that search.FlatSearch.run replaced, kept as the
# references of its differential test (tests/test_search_loop.py).  Both
# run over the current state table and expand; the adaptations to it are
# marked "(adapted)".  Their drained-queue fallbacks answer "solved"
# where the merged loop raises, and are unreachable.


def mra_run(self, log_expansions: bool = False) -> PlanResult:
    """MraSearch.run as it was before the merge, over a freshly built
    search.MraSearch (self).  Its gate_probe hook is left out."""
    self.expansion_log = [] if log_expansions else None
    started = time.monotonic()
    t0 = time.perf_counter()
    opens = self.opens
    anchor = opens[0]
    rest = range(1, len(opens))  # (adapted) was self.n_queues
    g, h = self.g, self.h
    goal_id = self.goal_id
    tables = [(t,) for t in self.tables]
    expand = self.expand
    choose_queue, update = self.policy.choose_queue, self.policy.update
    is_dts = self.config.policy == "dts"
    timeout = self.config.timeout
    timed = timeout < math.inf
    w2 = self.config.w2  # (adapted) was self.w2
    total = 0
    while True:
        nonempty = [i for i in rest if opens[i]]
        if not nonempty and not anchor:
            break
        if timed and check_deadline(total, started, timeout):
            return self.result(STATUS_TIMEOUT, None, t0)  # (adapted) bound is self.bound
        i = choose_queue(nonempty) if nonempty else 0
        mk0 = anchor.min_key()
        ol = opens[i]
        mk_i = ol.min_key() if i else mk0
        if mk_i <= w2 * mk0:
            # mk_i can only be inf when w1 * h overflows; it claims nothing.
            if g[goal_id] <= mk_i < math.inf:
                return self.result(STATUS_SOLVED, i, t0)
            expand(ol.pop(), i, tables[i])
            if is_dts and i:
                update(i, h[ol.peek()] if ol else math.inf)
        else:
            if g[goal_id] <= w2 * mk0:
                return self.result(STATUS_SOLVED, 0, t0)
            expand(anchor.pop(), 0, tables[0])
        total += 1
    if g[goal_id] < math.inf:
        # Defensive: queues drained in the same iteration the goal
        # became claimable.  Cost bound still holds.
        return self.result(STATUS_SOLVED, None, t0)
    return self.result(STATUS_EXHAUSTED, None, t0)


def single_queue(grid, start, goal, scales, union, w, timeout, log_expansions):
    """baselines._single_queue as it was before the merge.

    Weighted best-first search with one open list and no re-expansion.
    Without union every state moves at each scale of `scales` (one, for
    weighted_astar); with union `scales` is a ladder's multipliers and a
    state moves at the scales whose sublattice holds it, in ladder
    order.  With w = 1 and a consistent heuristic this is plain A*; with
    w > 1 the first claimed solution costs at most w times the action
    space's optimum.
    """
    t0 = time.perf_counter()
    started = time.monotonic()
    # (adapted) the core now takes the bound and inserts the start itself,
    # and picks the heuristic from the map (no hkind argument)
    core = FlatSearch(grid, start, goal, scales, (w,), bound=w)
    core.expansion_log = [] if log_expansions else None
    tables = core.tables
    spaces = grid.space_masks(tuple(scales)) if union else None
    open_list = core.opens[0]
    g, goal_id = core.g, core.goal_id
    timed = timeout < math.inf
    status = STATUS_EXHAUSTED
    while len(open_list):
        if timed and check_deadline(core.expansions[0], started, timeout):
            status = STATUS_TIMEOUT
            break
        # A key can only be inf when w * h overflows; such keys claim nothing.
        if g[goal_id] <= open_list.min_key() < math.inf:
            status = STATUS_SOLVED
            break
        sid = open_list.pop()
        if spaces is None:
            core.expand(sid, 0, tables)
        else:
            core.expand(sid, 0, [tables[i] for i in mask_bits(spaces[sid])])
    else:
        if g[goal_id] < math.inf:
            status = STATUS_SOLVED
    return core.result(status, 0 if status == STATUS_SOLVED else None, t0)
