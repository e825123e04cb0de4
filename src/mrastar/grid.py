"""Grid maps, resolution ladders, move generation and costs.

A map discretizes the world at unit resolution; coarser action spaces
reuse the same cells but take moves of length k (an odd multiplier) per
axis.  A cell belongs to the k-space when it sits at the center of a
k x k block, i.e. every coordinate is congruent to (k-1)/2 modulo k.
Edges are straight segments between cell centers and are valid only
when every cell the segment touches is free (see kernels for the exact
traversal rules).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InvalidProblemError
from .kernels import SQRT2, SQRT3

Cell = tuple[int, ...]

# Cost of a single-axis-count move at scale 1, indexed by the number of
# axes the move changes.
_STEP = (0.0, 1.0, SQRT2, SQRT3)


@dataclass(frozen=True, eq=False)
class GridMap:
    """Occupancy grid.  extents is (W, H) or (W, H, D); blocked is a
    boolean array shaped (H, W) or (D, H, W) with True for obstacles."""

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
        arr = np.ascontiguousarray(self.blocked, dtype=bool)
        if arr.shape != shape:
            raise ValueError(f"blocked shape {arr.shape} does not match extents {ext}")
        object.__setattr__(self, "blocked", arr)

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


def step_cost(k: int, axes: int) -> float:
    """Cost of a move of k cells along each of `axes` axes."""
    return k * _STEP[axes]


def successors_at_scale(cell: Cell, k: int, grid: GridMap) -> list[tuple[Cell, float]]:
    """Valid moves of scale k from cell, as (successor, cost) pairs in a
    fixed deterministic order."""
    occ = grid.flat_blocked
    if grid.dim == 2:
        out_xy = np.empty((8, 2), np.int64)
        out_m = np.empty(8, np.int64)
        n = kernels.successors_2d(
            occ, grid.extents[0], grid.extents[1], cell[0], cell[1], k, out_xy, out_m
        )
        return [
            ((int(out_xy[t, 0]), int(out_xy[t, 1])), k * _STEP[int(out_m[t])])
            for t in range(n)
        ]
    out_xyz = np.empty((26, 3), np.int64)
    out_m = np.empty(26, np.int64)
    n = kernels.successors_3d(
        occ,
        grid.extents[0],
        grid.extents[1],
        grid.extents[2],
        cell[0],
        cell[1],
        cell[2],
        k,
        out_xyz,
        out_m,
    )
    return [
        (
            (int(out_xyz[t, 0]), int(out_xyz[t, 1]), int(out_xyz[t, 2])),
            k * _STEP[int(out_m[t])],
        )
        for t in range(n)
    ]


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
