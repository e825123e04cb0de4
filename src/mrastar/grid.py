"""Grid maps, resolution ladders, move generation and costs.

A map discretizes the world at unit resolution; coarser action spaces
reuse the same cells but take moves of length k (an odd multiplier) per
axis.  A cell belongs to the k-space when it sits at the center of a
k x k block, i.e. every coordinate is congruent to (k-1)/2 modulo k.
Edges are straight segments between cell centers and are valid only
when every cell the segment touches is free (see kernels for the exact
traversal rules).

Planners do not walk segments: each GridMap caches, per scale k, a move
table with one bit per direction per cell (see MoveTable), built with
vectorized numpy from the same rule.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidProblemError
from .kernels import SQRT2, SQRT3
from .kernels import STEP as _STEP
from .kernels import MASK_BITS, mask_bits  # noqa: F401  (re-exported)

Cell = tuple[int, ...]


@dataclass(frozen=True)
class MoveTable:
    """Every valid move of one scale k on one map.

    masks[c] holds bit b set iff direction b is a valid length-k move
    from flat cell c; blocked cells hold 0.  Directions follow the
    kernels' order (dy, or dz, outermost, dx innermost, zero vector
    skipped), so decoding the bits upward yields successors_at_scale's
    order.  offsets[b] is the flat-index step of direction b and
    costs[b] its cost k * sqrt(axes changed).  masks is a memoryview
    over uint8 (2D, 8 directions) or uint32 (3D, 26 directions) values.
    """

    k: int
    masks: memoryview
    offsets: tuple[int, ...]
    costs: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class GridMap:
    """Occupancy grid.  extents is (W, H) or (W, H, D); blocked is a
    boolean array shaped (H, W) or (D, H, W) with True for obstacles.

    The grid keeps its own read-only copy of blocked, so the move tables
    it caches (move_table, space_masks) cannot go stale.  The cache is
    derived data: it is dropped when the grid is pickled or copied."""

    extents: tuple[int, ...]
    blocked: np.ndarray

    def __post_init__(self):
        ext = tuple(int(e) for e in self.extents)
        object.__setattr__(self, "extents", ext)
        if len(ext) not in (2, 3):
            raise ValueError(f"extents must have 2 or 3 entries, got {len(ext)}")
        if any(e < 1 for e in ext):
            raise ValueError(f"extents must be positive, got {ext}")
        shape = tuple(reversed(ext))
        arr = np.array(self.blocked, dtype=bool, order="C")
        if arr.shape != shape:
            raise ValueError(f"blocked shape {arr.shape} does not match extents {ext}")
        arr.flags.writeable = False
        object.__setattr__(self, "blocked", arr)
        object.__setattr__(self, "_cache", {})

    def __reduce__(self):
        return type(self), (self.extents, self.blocked)

    @classmethod
    def empty(cls, extents) -> "GridMap":
        ext = tuple(int(e) for e in extents)
        return cls(ext, np.zeros(tuple(reversed(ext)), dtype=bool))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def size(self) -> int:
        return int(np.prod(self.extents))

    @property
    def flat_blocked(self) -> np.ndarray:
        return self.blocked.ravel()

    def in_bounds(self, cell: Cell) -> bool:
        return len(cell) == self.dim and all(
            0 <= c < e for c, e in zip(cell, self.extents)
        )

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and not bool(self.blocked[tuple(reversed(cell))])

    def flat_index(self, cell: Cell) -> int:
        if self.dim == 2:
            return cell[1] * self.extents[0] + cell[0]
        w, h = self.extents[0], self.extents[1]
        return (cell[2] * h + cell[1]) * w + cell[0]

    def cell_of(self, flat: int) -> Cell:
        w = self.extents[0]
        if self.dim == 2:
            return (flat % w, flat // w)
        h = self.extents[1]
        return (flat % w, (flat // w) % h, flat // (w * h))

    def move_table(self, k: int) -> MoveTable:
        """The scale-k MoveTable of this map, built on first use and
        cached for every later query and planner."""
        key = ("moves", k)
        table = self._cache.get(key)
        if table is None:
            k = check_multiplier(k)
            unit = None if k == 1 else self.move_table(1)
            table = _build_move_table(self, k, unit)
            self._cache[key] = table
        return table

    def space_masks(self, multipliers: tuple[int, ...]):
        """Per flat cell, the bitmask of ladder spaces (bit i for level
        i, of multiplier multipliers[i]) whose sublattice holds the
        cell; cached per ladder.  Indexing the result yields ints."""
        multipliers = tuple(check_multiplier(k) for k in multipliers)
        key = ("spaces", multipliers)
        masks = self._cache.get(key)
        if masks is None:
            masks = _build_space_masks(self, multipliers)
            self._cache[key] = masks
        return masks


def as_cell(cell, name: str = "cell") -> Cell:
    """cell as a tuple of Python ints.  Raises InvalidProblemError unless
    cell is a sequence of integers (int or numpy integer): a bool, a
    float, even an integral one, or a string is refused rather than
    truncated."""
    try:
        coords = tuple(cell)
    except TypeError:
        raise InvalidProblemError(f"{name} {cell!r} is not a sequence of coordinates") from None
    for c in coords:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise InvalidProblemError(f"{name} {cell!r} has a non-integer coordinate {c!r}")
    return tuple(map(int, coords))


def check_multiplier(k) -> int:
    """k as an int; raises InvalidProblemError unless it is an integer
    (int or numpy integer, as for as_cell: a bool, a float or a string
    is refused rather than truncated), odd and >= 1, the rule for every
    action scale (ladder level or single-scale planner)."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise InvalidProblemError(f"multipliers must be integers, got {k!r}")
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise InvalidProblemError(f"multipliers must be odd and >= 1, got {k}")
    return k


@dataclass(frozen=True)
class ResolutionLadder:
    """Odd per-axis multipliers, strictly increasing, first entry 1 (the
    anchor space).  No nesting is assumed between the coarser levels."""

    multipliers: tuple[int, ...]

    def __post_init__(self):
        try:
            mults = tuple(map(check_multiplier, self.multipliers))
        except TypeError:
            raise InvalidProblemError(
                f"ladder {self.multipliers!r} is not a sequence of multipliers"
            ) from None
        object.__setattr__(self, "multipliers", mults)
        if not mults:
            raise InvalidProblemError("ladder must have at least one multiplier")
        if mults[0] != 1:
            raise InvalidProblemError(f"first multiplier must be 1, got {mults[0]}")
        if any(b <= a for a, b in zip(mults, mults[1:])):
            raise InvalidProblemError(
                f"multipliers must be strictly increasing, got {mults}"
            )

    def __len__(self) -> int:
        return len(self.multipliers)

    def __getitem__(self, i: int) -> int:
        return self.multipliers[i]


def coincides(cell: Cell, k: int) -> bool:
    """True iff cell lies on the k-space sublattice (center of a k-block)."""
    half = (k - 1) // 2
    return all(c % k == half for c in cell)


def get_space_indices(cell: Cell, ladder: ResolutionLadder) -> list[int]:
    """Indices of every ladder space whose sublattice contains cell.
    Index 0 is always present: the anchor space covers all cells."""
    return [i for i, k in enumerate(ladder.multipliers) if coincides(cell, k)]


def edge_valid(a: Cell, b: Cell, grid: GridMap) -> bool:
    """True iff the straight segment between the centers of a and b only
    touches free cells.  Symmetric in its endpoints."""
    if not grid.in_bounds(a) or not grid.in_bounds(b):
        raise InvalidProblemError(f"edge endpoints {a}->{b} out of bounds")
    occ = grid.flat_blocked
    if grid.dim == 2:
        return bool(
            kernels.supercover_free_2d(occ, grid.extents[0], a[0], a[1], b[0], b[1])
        )
    return bool(
        kernels.supercover_free_3d(
            occ, grid.extents[0], grid.extents[1], a[0], a[1], a[2], b[0], b[1], b[2]
        )
    )


def directions(dim: int) -> list[tuple[int, ...]]:
    """King-move unit vectors (x first) in the kernels' successor order:
    dy (and dz) outermost, dx innermost, the zero vector skipped."""
    out = []
    for d in np.ndindex(*(3,) * dim):
        vec = tuple(c - 1 for c in reversed(d))
        if any(vec):
            out.append(vec)
    return out


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


def _build_move_table(grid: GridMap, k: int, unit: MoveTable | None) -> MoveTable:
    """A unit move is valid iff every cell of the box it spans is free
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


def _build_space_masks(grid: GridMap, multipliers: tuple[int, ...]):
    n = len(multipliers)
    dtype = next((t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                  if n <= 8 * np.dtype(t).itemsize), object)
    shape = grid.blocked.shape
    masks = np.zeros(shape, dtype)
    for i, k in enumerate(multipliers):
        half = (k - 1) // 2
        hit = np.ones(shape, bool)
        for axis, n_axis in enumerate(shape):
            along = [1] * len(shape)
            along[axis] = n_axis
            hit &= (np.arange(n_axis) % k == half).reshape(along)
        masks |= hit.astype(dtype) << i
    flat = masks.ravel()
    return flat.tolist() if dtype is object else memoryview(flat)


def successors_at_scale(cell: Cell, k: int, grid: GridMap) -> list[tuple[Cell, float]]:
    """Valid moves of scale k from cell, as (successor, cost) pairs in a
    fixed deterministic order."""
    occ = grid.flat_blocked
    if grid.dim == 2:
        moves = kernels.successors_2d(occ, *grid.extents, cell[0], cell[1], k)
    else:
        moves = kernels.successors_3d(occ, *grid.extents, cell[0], cell[1], cell[2], k)
    return [(grid.cell_of(int(v)), k * _STEP[m]) for v, m in moves]


def heuristic(a: Cell, b: Cell, kind: str = "octile") -> float:
    """Admissible distance estimate between cells.

    octile (2D only): sqrt(2)*min(|dx|,|dy|) + ||dx|-|dy||, the exact
    free-space distance under 8-connected unit moves.  euclidean: the
    straight-line distance, admissible in any dimension.
    """
    if kind == "octile":
        if len(a) != 2 or len(b) != 2:
            raise InvalidProblemError("octile heuristic is defined for 2D cells only")
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        lo = dx if dx < dy else dy
        hi = dx + dy - lo
        return lo * SQRT2 + (hi - lo)
    if kind == "euclidean":
        return math.hypot(*(ca - cb for ca, cb in zip(a, b)))
    raise ValueError(f"unknown heuristic kind: {kind!r}")


def flat_heuristic(grid: GridMap, goal: Cell):
    """The planners' h(flat id), fixed by the map: octile distance on a
    2D map, euclidean on a 3D one.  It is the same float as
    heuristic(grid.cell_of(id), goal, kind) with that kind, computed
    without building the cell tuple."""
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


def edge_decomposition(a: Cell, b: Cell) -> tuple[int, int]:
    """(scale, changed-axis count) of the lattice move a->b.

    Every legal move changes some subset of axes by the same magnitude k;
    raises if a->b is not of that form.
    """
    # k: the largest step; m: the axes changed by k; nz: the axes changed
    k = m = nz = 0
    for ca, cb in zip(a, b):
        d = abs(ca - cb)
        if d != 0:
            nz += 1
            if d > k:
                k, m = d, 1
            elif d == k:
                m += 1
    if len(a) != len(b) or not nz:
        raise ValueError(f"{a}->{b} is not a lattice move")
    if m != nz:
        nonzero = [d for d in (abs(ca - cb) for ca, cb in zip(a, b)) if d != 0]
        raise ValueError(f"{a}->{b} mixes step magnitudes {sorted(set(nonzero))}")
    return k, m


def path_cost(path: list[Cell]) -> float:
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
        k, m = edge_decomposition(u, v)
        if m == 1:
            a1 += k
        elif m == 2:
            a2 += k
        else:
            a3 += k
    return (float(a1) + a2 * SQRT2) + a3 * SQRT3


def fine_components(grid: GridMap) -> np.ndarray:
    """Connected-component labels of the free cells under unit moves,
    shaped like grid.blocked; -1 marks blocked cells."""
    occ = grid.flat_blocked
    if grid.dim == 2:
        w, h = grid.extents
        labels = kernels.component_labels_2d(occ, w, h)
    else:
        w, h, d = grid.extents
        labels = kernels.component_labels_3d(occ, w, h, d)
    return labels.reshape(grid.blocked.shape)
