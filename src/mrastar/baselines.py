"""Single-queue baseline planners and the exact-cost oracle.

All baselines share the multi-resolution planner's move semantics and
search loop: each is a one-queue search.FlatSearch run over the grid's
cached move tables (same edge validity, same costs) whose gate never
blocks and whose bound is w, isolating the search strategy as the only
difference.  The oracle Dijkstra (kernels.dijkstra_2d/3d: heapq over
unit-move bitmasks it builds per call by the box rule) does not use the
move tables, so it stays independent of the planners' moves.
"""

import math

import numpy as np

from . import kernels
from .errors import InvalidProblemError
from .grid import Cell, GridMap, ResolutionLadder, as_cell, path_cost

# Not called here, which reads the grid's move tables instead; bound so
# that layer tracers (see perfbench/tracing.py) find the same names on
# every planner module.
from .grid import get_space_indices, heuristic, successors_at_scale  # noqa: F401
from .search import FlatSearch, PlanResult, validate_query


def weighted_astar(
    grid: GridMap,
    start: Cell,
    goal: Cell,
    *,
    multiplier: int = 1,
    w: float = 1.0,
    timeout: float = math.inf,
    log_expansions: bool = False,
) -> PlanResult:
    """Weighted A* over a single action scale.

    Both endpoints must be free and lie on the multiplier's sublattice;
    the returned cost is at most w times the optimum of that scale's
    action space (which for multiplier > 1 may exceed the unit-scale
    optimum, or find no path at all where one exists).
    """
    start, goal, _ = validate_query(grid, start, goal, sublattice=multiplier, timeout=timeout, w=w)
    return FlatSearch(
        grid, start, goal, (int(multiplier),), (w,), bound=w, timeout=timeout
    ).run(log_expansions)


def wa_union(
    grid: GridMap,
    start: Cell,
    goal: Cell,
    ladder: ResolutionLadder,
    *,
    w: float = 1.0,
    timeout: float = math.inf,
    log_expansions: bool = False,
) -> PlanResult:
    """Weighted A* over the union of a ladder's action spaces: one queue,
    and each state offers the moves of every space it coincides with."""
    start, goal, ladder = validate_query(grid, start, goal, ladder, timeout=timeout, w=w)
    mults = ladder.multipliers
    return FlatSearch(
        grid, start, goal, mults, (w,), bound=w, timeout=timeout,
        table_masks=grid.space_masks(mults),
    ).run(log_expansions)


def dijkstra_field(grid: GridMap, source: Cell) -> tuple[np.ndarray, np.ndarray]:
    """Exact unit-scale distances from source to every cell, plus the
    predecessor field (flat indices, -1 where unreached).  Arrays are
    shaped like grid.blocked.  A blocked source reaches nothing: every
    distance is inf.  Raises InvalidProblemError when source is out of
    bounds, has the wrong number of coordinates or a non-integer one."""
    source = as_cell(source, "source")
    if not grid.in_bounds(source):
        raise InvalidProblemError(
            f"source {source} is out of bounds or not a {grid.dim}D cell"
        )
    occ = grid.flat_blocked
    if grid.dim == 2:
        w, h = grid.extents
        dist, bp = kernels.dijkstra_2d(occ, w, h, source[0], source[1], -1, -1)
    else:
        w, h, d = grid.extents
        dist, bp = kernels.dijkstra_3d(
            occ, w, h, d, source[0], source[1], source[2], -1, -1, -1
        )
    shape = grid.blocked.shape
    return dist.reshape(shape), bp.reshape(shape)


def dijkstra_optimal(grid: GridMap, start: Cell, goal: Cell) -> float:
    """Optimal unit-scale path cost between two cells, recomputed from
    the predecessor chain so equal-cost optima agree bitwise.  Returns
    inf when no path exists (including blocked, out-of-range and
    non-integer inputs); never raises."""
    try:
        start, goal = as_cell(start), as_cell(goal)
    except InvalidProblemError:
        return math.inf
    if not grid.is_free(start) or not grid.is_free(goal):
        return math.inf
    if start == goal:
        return 0.0
    occ = grid.flat_blocked
    if grid.dim == 2:
        w, h = grid.extents
        dist, bp = kernels.dijkstra_2d(occ, w, h, start[0], start[1], goal[0], goal[1])
    else:
        w, h, d = grid.extents
        dist, bp = kernels.dijkstra_3d(
            occ, w, h, d, start[0], start[1], start[2], goal[0], goal[1], goal[2]
        )
    goal_id = grid.flat_index(goal)
    if not math.isfinite(dist[goal_id]):
        return math.inf
    start_id = grid.flat_index(start)
    chain = [goal_id]
    while chain[-1] != start_id:
        chain.append(int(bp[chain[-1]]))
    chain.reverse()
    return path_cost([grid.cell_of(s) for s in chain])
