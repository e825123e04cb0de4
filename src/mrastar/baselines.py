"""Single-queue baseline planners and the exact-cost oracle.

All baselines share the multi-resolution planner's move semantics (same
successor generation, same edge validity, same costs), isolating the
search strategy as the only difference.
"""

import math
import time

import numpy as np

from . import kernels
from .grid import (
    Cell,
    GridMap,
    ResolutionLadder,
    get_space_indices,
    heuristic,
    path_cost,
    successors_at_scale,
)
from .search import (
    STATUS_EXHAUSTED,
    STATUS_SOLVED,
    STATUS_TIMEOUT,
    OpenList,
    PlanResult,
    check_deadline,
    validate_query,
)


def _single_queue(grid, start, goal, succ_fn, hkind, w, timeout, log_expansions):
    """Weighted best-first search with one open list and no re-expansion.

    succ_fn(cell) yields (successor, cost) pairs.  With w = 1 and a
    consistent heuristic this is plain A*; with w > 1 the first claimed
    solution costs at most w times this action space's optimum.
    """
    t0 = time.perf_counter()
    started = time.monotonic()
    goal_cell = goal
    sid_of = grid.flat_index
    start_id = sid_of(start)
    goal_id = sid_of(goal)
    g = {start_id: 0.0}
    if goal_id not in g:
        g[goal_id] = math.inf
    bp: dict[int, int] = {}
    closed: set[int] = set()
    hs = {start_id: heuristic(start, goal_cell, hkind), goal_id: 0.0}
    open_list = OpenList()
    open_list.insert_or_update(start_id, w * hs[start_id], 0.0)
    log = [] if log_expansions else None
    expansions = 0
    status = STATUS_EXHAUSTED

    while len(open_list):
        if check_deadline(expansions, started, timeout):
            status = STATUS_TIMEOUT
            break
        # A key can only be inf when w * h overflows; such keys claim nothing.
        if g[goal_id] <= open_list.min_key() < math.inf:
            status = STATUS_SOLVED
            break
        sid = open_list.pop()
        closed.add(sid)
        cell = grid.cell_of(sid)
        expansions += 1
        if log is not None:
            log.append((0, cell))
        g_s = g[sid]
        for succ, cost in succ_fn(cell):
            sid2 = sid_of(succ)
            ng = g_s + cost
            if ng < g.get(sid2, math.inf):
                g[sid2] = ng
                bp[sid2] = sid
                if sid2 not in closed:
                    h2 = hs.get(sid2)
                    if h2 is None:
                        h2 = heuristic(succ, goal_cell, hkind)
                        hs[sid2] = h2
                    open_list.insert_or_update(sid2, ng + w * h2, ng)
    else:
        if g.get(goal_id, math.inf) < math.inf:
            status = STATUS_SOLVED

    if status == STATUS_SOLVED:
        chain = [goal_id]
        while chain[-1] != start_id:
            chain.append(bp[chain[-1]])
        chain.reverse()
        path = [grid.cell_of(s) for s in chain]
        cost = path_cost(path)
    else:
        path = []
        cost = math.inf
    return PlanResult(
        status=status,
        path=path,
        cost=cost,
        expansions=[expansions],
        generated=len(g),
        wall_time=time.perf_counter() - t0,
        winning_queue=0 if status == STATUS_SOLVED else None,
        bound=w if status == STATUS_SOLVED else None,
        expansion_log=log,
    )


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
    k = int(multiplier)
    return _single_queue(
        grid,
        start,
        goal,
        lambda cell: successors_at_scale(cell, k, grid),
        hkind,
        w,
        timeout,
        log_expansions,
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

    def union_succ(cell):
        out = []
        for i in get_space_indices(cell, ladder):
            out.extend(successors_at_scale(cell, ladder.multipliers[i], grid))
        return out

    return _single_queue(
        grid, start, goal, union_succ, hkind, w, timeout, log_expansions
    )


def dijkstra_field(grid: GridMap, source: Cell) -> tuple[np.ndarray, np.ndarray]:
    """Exact unit-scale distances from source to every cell, plus the
    predecessor field (flat indices, -1 where unreached).  Arrays are
    shaped like grid.blocked."""
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
    inf when no path exists (including blocked or out-of-range inputs);
    never raises."""
    start = tuple(int(c) for c in start)
    goal = tuple(int(c) for c in goal)
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
