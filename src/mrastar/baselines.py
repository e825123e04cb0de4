"""Single-queue baseline planners and the exact-cost oracle.

All baselines share the multi-resolution planner's move semantics and
search core (search.FlatSearch over the grid's cached move tables, same
edge validity, same costs), isolating the search strategy as the only
difference.  The oracle Dijkstra (kernels.dijkstra_2d/3d: heapq over
unit-move bitmasks it builds per call by the box rule) does not use the
move tables, so it stays independent of the planners' moves.
"""

import math
import time

import numpy as np

from . import kernels
from .errors import InvalidProblemError
from .grid import Cell, GridMap, ResolutionLadder, as_cell, path_cost
from .kernels import mask_bits

# Not called here, which reads the grid's move tables instead; bound so
# that layer tracers (see perfbench/tracing.py) find the same names on
# every planner module.
from .grid import get_space_indices, heuristic, successors_at_scale  # noqa: F401
from .search import (
    STATUS_EXHAUSTED,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    FlatSearch,
    PlanResult,
    check_deadline,
    validate_query,
)


def _single_queue(grid, start, goal, scales, union, hkind, w, timeout, log_expansions):
    """Weighted best-first search with one open list and no re-expansion.

    Without union every state moves at each scale of `scales` (one, for
    weighted_astar); with union `scales` is a ladder's multipliers and a
    state moves at the scales whose sublattice holds it, in ladder
    order.  With w = 1 and a consistent heuristic this is plain A*; with
    w > 1 the first claimed solution costs at most w times the action
    space's optimum.
    """
    t0 = time.perf_counter()
    started = time.monotonic()
    core = FlatSearch(grid, start, goal, hkind, scales, (w,))
    core.expansion_log = [] if log_expansions else None
    tables = core.tables
    spaces = grid.space_masks(tuple(scales)) if union else None
    open_list = core.opens[0]
    open_list.insert_or_update(core.start_id, w * core.h[core.start_id], 0.0)
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
    return core.result(status, 0 if status == STATUS_SOLVED else None, w, t0)


def weighted_astar(
    grid: GridMap,
    start: Cell,
    goal: Cell,
    *,
    multiplier: int = 1,
    w: float = 1.0,
    heuristic: str = "auto",
    timeout: float = math.inf,
    log_expansions: bool = False,
) -> PlanResult:
    """Weighted A* over a single action scale.

    Both endpoints must be free and lie on the multiplier's sublattice;
    the returned cost is at most w times the optimum of that scale's
    action space (which for multiplier > 1 may exceed the unit-scale
    optimum, or find no path at all where one exists).
    """
    start, goal, _, hkind = validate_query(
        grid, start, goal, heuristic=heuristic, sublattice=multiplier, w=w
    )
    return _single_queue(
        grid, start, goal, (int(multiplier),), False, hkind, w, timeout, log_expansions
    )


def wa_union(
    grid: GridMap,
    start: Cell,
    goal: Cell,
    ladder: ResolutionLadder,
    *,
    w: float = 1.0,
    heuristic: str = "auto",
    timeout: float = math.inf,
    log_expansions: bool = False,
) -> PlanResult:
    """Weighted A* over the union of a ladder's action spaces: one queue,
    and each state offers the moves of every space it coincides with."""
    start, goal, ladder, hkind = validate_query(grid, start, goal, ladder, heuristic, w=w)
    return _single_queue(
        grid, start, goal, ladder.multipliers, True, hkind, w, timeout, log_expansions
    )


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
