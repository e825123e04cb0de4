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

    def __getstate__(self):
        return {"extents": self.extents, "blocked": self.blocked}

    def __setstate__(self, state):
        blocked = np.array(state["blocked"], dtype=bool, order="C")
        blocked.flags.writeable = False
        object.__setattr__(self, "extents", state["extents"])
        object.__setattr__(self, "blocked", blocked)
        object.__setattr__(self, "_cache", {})

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


def check_multiplier(k) -> int:
    """k as an int; raises InvalidProblemError unless it is odd and >= 1,
    the rule for every action scale (ladder level or single-scale
    planner)."""
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
        mults = tuple(int(m) for m in self.multipliers)
        object.__setattr__(self, "multipliers", mults)
        if not mults:
            raise InvalidProblemError("ladder must have at least one multiplier")
        if mults[0] != 1:
            raise InvalidProblemError(f"first multiplier must be 1, got {mults[0]}")
        for m in mults:
            check_multiplier(m)
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


def _window_and(u: np.ndarray, step: tuple[int, ...], k: int) -> np.ndarray:
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


def _build_move_table(grid: GridMap, k: int, unit: MoveTable | None) -> MoveTable:
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
            ok = _window_and(ok, step, k)
        masks |= ok.astype(dtype) << b
        offsets.append(k * sum(v * st for v, st in zip(vec, strides)))
        costs.append(k * _STEP[sum(1 for v in vec if v)])
    return MoveTable(k, memoryview(masks.ravel()), tuple(offsets), tuple(costs))


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


def _chunk_bits(base: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(base + b for b in range(9) if m >> b & 1) for m in range(512)
    )


# MASK_BITS[m] lists the set bits of m < 512, ascending, so that decoding
# a mask costs one to three tuple lookups instead of a loop per bit.
MASK_BITS = _chunk_bits(0)
_MID_BITS = _chunk_bits(9)
_HIGH_BITS = _chunk_bits(18)


def mask_bits(m: int) -> tuple[int, ...]:
    """Indices of the set bits of m >= 0, ascending."""
    if m < 512:
        return MASK_BITS[m]
    if m < 1 << 27:
        return MASK_BITS[m & 511] + _MID_BITS[m >> 9 & 511] + _HIGH_BITS[m >> 18]
    return tuple(b for b in range(m.bit_length()) if m >> b & 1)


def step_cost(k: int, axes: int) -> float:
    """Cost of a move of k cells along each of `axes` axes."""
    return k * _STEP[axes]


def successors_at_scale(cell: Cell, k: int, grid: GridMap) -> list[tuple[Cell, float]]:
    """Valid moves of scale k from cell, as (successor, cost) pairs in a
    fixed deterministic order."""
    occ = grid.flat_blocked
    if grid.dim == 2:
        moves = kernels.successors_2d(occ, *grid.extents, cell[0], cell[1], k)
    else:
        moves = kernels.successors_3d(occ, *grid.extents, cell[0], cell[1], cell[2], k)
    return [(grid.cell_of(int(v)), k * _STEP[m]) for v, m in moves]


HEURISTICS = ("octile", "euclidean")


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


def flat_heuristic(grid: GridMap, goal: Cell, kind: str):
    """h(flat id): the same float as heuristic(grid.cell_of(id), goal,
    kind), computed without building the cell tuple."""
    w = grid.extents[0]
    if kind == "octile":
        if grid.dim != 2:
            raise InvalidProblemError("octile heuristic is defined for 2D cells only")
        gx, gy = goal

        def octile(sid: int) -> float:
            dx = abs(sid % w - gx)
            dy = abs(sid // w - gy)
            if dx < dy:
                return dx * SQRT2 + (dy - dx)
            return dy * SQRT2 + (dx - dy)

        return octile
    if kind != "euclidean":
        raise ValueError(f"unknown heuristic kind: {kind!r}")
    if grid.dim == 2:
        gx, gy = goal
        return lambda sid: math.hypot(sid % w - gx, sid // w - gy)
    gx, gy, gz = goal
    wh = w * grid.extents[1]
    return lambda sid: math.hypot(sid % w - gx, sid % wh // w - gy, sid // wh - gz)


def edge_decomposition(a: Cell, b: Cell) -> tuple[int, int]:
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
