"""Synthetic map families for the tests and examples; perfbench builds
its own maps.

Each instance generator returns (grid, start, goal) with both endpoints
free, mutually connected on the unit lattice, and placed on the coarse
sublattices the instance is meant to exercise.
"""

import numpy as np

from .errors import InvalidProblemError
from .grid import Cell, GridMap, as_extents, check_int, check_real, coincides, fine_components

CORRIDOR_SCALE = 7  # see corridor_instance
CUL_DE_SAC_SCALE = 21  # see cul_de_sac_instance


def random_grid(extents, density: float, seed: int) -> GridMap:
    """Uniform random obstacles at the given density (fraction of cells
    blocked, in [0, 1]), checked before any draw: extents by
    grid.as_extents, density by grid.check_real, seed by grid.check_int."""
    extents = as_extents(extents)
    if not 0.0 <= check_real("density", density) <= 1.0:
        raise InvalidProblemError(f"density must be in [0, 1], got {density}")
    rng = np.random.default_rng(check_int("seed", seed))
    return GridMap(extents, rng.random(extents[::-1]) < density)


def _check_connected(grid: GridMap, start: Cell, goal: Cell) -> None:
    labels = fine_components(grid)
    a = labels[tuple(reversed(start))]
    b = labels[tuple(reversed(goal))]
    if a < 0 or a != b:
        raise AssertionError("generated instance is not connected")


def corridor_instance(seed: int) -> tuple[GridMap, Cell, Cell]:
    """A full-height wall pierced by a single one-cell corridor.

    The corridor row is off the k = CORRIDOR_SCALE sublattice, so no
    scale-k move can thread it (a length-k segment crossing the wall
    must touch a wall cell in some other row), while unit moves pass
    freely.  Start and goal sit on the k-sublattice on opposite sides.
    """
    k = CORRIDOR_SCALE
    rng = np.random.default_rng(check_int("seed", seed))
    half = (k - 1) // 2
    w = k * int(rng.integers(7, 10))
    h = k * int(rng.integers(6, 9))
    thickness = int(rng.integers(3, 7))
    xs = (w - thickness) // 2 + int(rng.integers(-5, 6))
    yc = int(rng.integers(1, h - 1))
    while yc % k == half:
        yc = int(rng.integers(1, h - 1))
    blocked = np.zeros((h, w), dtype=bool)
    blocked[:, xs : xs + thickness] = True
    blocked[yc, xs : xs + thickness] = False
    grid = GridMap((w, h), blocked)

    rows = [y for y in range(half, h, k)]
    start = (half, rows[int(rng.integers(0, len(rows)))])
    right_cols = [x for x in range(half, w, k) if x >= xs + thickness]
    goal = (right_cols[int(rng.integers(0, len(right_cols)))],
            rows[int(rng.integers(0, len(rows)))])
    assert coincides(start, k) and coincides(goal, k)
    _check_connected(grid, start, goal)
    return grid, start, goal


def cul_de_sac_instance(seed: int) -> tuple[GridMap, Cell, Cell]:
    """A bracket-shaped pocket opening toward the start.

    The straight start-goal line runs into the pocket, whose interior is
    at least 20 cells deep, creating a heuristic depression a fine-only
    greedy search must flood before escaping.  Both endpoints lie on the
    CUL_DE_SAC_SCALE-sublattice so every ladder level can reach them.
    """
    k_max = CUL_DE_SAC_SCALE
    rng = np.random.default_rng(check_int("seed", seed))
    w = h = 96
    half = (k_max - 1) // 2
    lattice = list(range(half, h, k_max))  # 10, 31, 52, 73, 94
    sy = lattice[int(rng.integers(1, 3))]  # 31 or 52: room above and below
    cy = sy + int(rng.integers(-2, 3))
    depth = int(rng.integers(21, 28))
    cx = 56 + int(rng.integers(-4, 5))
    hh = int(rng.integers(13, 18))
    th = 2
    blocked = np.zeros((h, w), dtype=bool)
    blocked[cy - hh : cy + hh + 1, cx : cx + th] = True  # back wall
    blocked[cy - hh : cy - hh + th, cx - depth : cx + th] = True  # top arm
    blocked[cy + hh - th + 1 : cy + hh + 1, cx - depth : cx + th] = True  # bottom arm
    grid = GridMap((w, h), blocked)

    start = (lattice[0], sy)
    goal = (lattice[4], sy)
    assert coincides(start, k_max) and coincides(goal, k_max)
    _check_connected(grid, start, goal)
    return grid, start, goal
