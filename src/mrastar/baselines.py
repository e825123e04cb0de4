"""Single-queue baseline planners and the exact-cost oracle.

All baselines share the multi-resolution planner's move semantics and
search loop: each is a one-queue search.FlatSearch run over the grid's
cached move tables (the box rule of kernels.move_free, same costs)
whose gate never blocks and whose bound is w, isolating the search
strategy as the only difference.  weighted_astar's queue reads one
scale's table, wa_union's every ladder level's.  The exact oracle is
one search loop, kernels.astar_unit, over the planners' own k = 1
table (GridMap.move_table(1)) and its decoded-move cache, which the
planners fill too: dijkstra_optimal runs it toward the goal, with
its own heuristic (the obstacle-free unit-move distance, octile in 2D)
rather than the planners', and costs its predecessor chain of flat ids
with grid.walk_chain, as the planners cost theirs.  The full distance
field, the same loop with no goal, is kernels.dijkstra_2d/3d.  The
table is checked apart from its builder by tests/test_kernels.py,
tests/test_move_tables.py and perfbench's scipy reference, which
checks every oracle answer.
"""

import math

from . import kernels
from .errors import InvalidProblemError
from .grid import Cell, GridMap, ResolutionLadder, as_cell, walk_chain

# Not called here, which reads the grid's move tables and costs
# predecessor chains; bound so that layer tracers (see
# perfbench/tracing.py) find the same names on every planner module.
from .grid import get_space_indices, heuristic, path_cost, successors_at_scale  # noqa: F401
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
        grid, start, goal, [(int(multiplier),)], (w,), bound=w, timeout=timeout
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
    """Weighted A* over the union of a ladder's action spaces: one queue
    that reads every level's move table (but one holding no move at
    all), so that each state offers the moves of every space it
    coincides with (a coarse table holds no moves off its sublattice)."""
    start, goal, ladder = validate_query(grid, start, goal, ladder, timeout=timeout, w=w)
    return FlatSearch(
        grid, start, goal, [ladder.multipliers], (w,), bound=w, timeout=timeout
    ).run(log_expansions)


def dijkstra_optimal(grid: GridMap, start: Cell, goal: Cell) -> float:
    """Optimal unit-scale path cost between two cells, by A* over the
    grid's k = 1 move table, summed from the predecessor chain of flat
    ids by grid.walk_chain, which reads the A*'s bp buffer as Python
    ints, so that equal-cost optima agree bitwise and the answer is the
    same float as path_cost of the chain's cells.
    Returns inf when no path exists (including blocked, out-of-range
    and non-integer inputs); never raises."""
    try:
        start, goal = as_cell(start), as_cell(goal)
    except InvalidProblemError:
        return math.inf
    if not grid.is_free(start) or not grid.is_free(goal):
        return math.inf
    if start == goal:
        return 0.0
    start_id, goal_id = grid.flat_index(start), grid.flat_index(goal)
    t = grid.move_table(1)
    dist, bp = kernels.astar_unit(grid.blocked, t.masks, t.moves, start_id, goal_id)
    if not math.isfinite(dist[goal_id]):
        return math.inf
    return walk_chain(grid, bp.data, start_id, goal_id)[1]
