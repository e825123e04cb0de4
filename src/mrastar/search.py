"""Multi-queue bounded-suboptimal search over a resolution ladder.

The planner runs one weighted best-first search per ladder level, all
sharing a single table of states (g values and backpointers).  Queue 0,
the anchor, searches the unit-resolution space with an admissible key
g + h and gates the others: a coarser queue may only expand while its
best key stays within w2 times the anchor's best key.  Any solution
claimed under that gate costs at most w2 times the optimal cost in the
anchor space, even though coarse queues use the inflated key g + w1*h
and no state is ever re-expanded by the same queue.  FlatSearch.run is
that loop; with the anchor queue alone it is the baselines' weighted A*.
"""

import math
import numbers
import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import InvalidProblemError, SearchCorruptionError
from .grid import (
    Cell,
    GridMap,
    ResolutionLadder,
    as_cell,
    check_multiplier,
    coincides,
    flat_heuristic,
    path_cost,
)
from .kernels import HIGH_BITS, MASK_BITS, MID_BITS, mask_bits
from .policies import POLICIES, make_policy

# Not called by the search core, which reads the grid's move tables and
# sublattice masks instead; bound here so that layer tracers (see
# perfbench/tracing.py) find the same names on every planner module.
from .grid import get_space_indices, heuristic, successors_at_scale  # noqa: F401

STATUS_SOLVED = "solved"
STATUS_EXHAUSTED = "exhausted"
STATUS_TIMEOUT = "timeout"

# shared by every query that names no ladder: frozen, so built only once
_UNIT_LADDER = ResolutionLadder((1,))


def validate_query(
    grid: GridMap | None = None,
    start: Cell = (),
    goal: Cell = (),
    ladder=_UNIT_LADDER,
    *,
    sublattice: int = 1,
    timeout: float = math.inf,
    **weights: float,
) -> tuple[Cell, Cell, ResolutionLadder] | None:
    """The one check of a planning query, shared by PlannerConfig,
    Problem and the baselines; raises InvalidProblemError up front.

    timeout and every weight passed by keyword must be real numbers (a
    bool or a string is refused): a weight finite and >= 1, the timeout
    > 0 (inf means none).  Given no grid (PlannerConfig's case) it
    returns None.  Given a grid, the endpoints become int tuples (see
    as_cell: integer coordinates only) that must be free cells on the
    sublattice of the odd scale `sublattice`, and the ladder becomes a
    ResolutionLadder (a ResolutionLadder comes back as is).
    Returns (start, goal, ladder).
    """
    for name, x in (*weights.items(), ("timeout", timeout)):
        # float first: the numbers.Real check alone costs about 1 us per value
        if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
            raise InvalidProblemError(f"{name} must be a real number, got {x!r}")
    for name, w in weights.items():
        if not 1.0 <= w < math.inf:  # written so that NaN fails
            raise InvalidProblemError(f"{name} must be a finite number >= 1, got {w}")
    if not timeout > 0:
        raise InvalidProblemError(f"timeout must be positive, got {timeout}")
    if grid is None:
        return None
    k = check_multiplier(sublattice)
    if not isinstance(ladder, ResolutionLadder):
        ladder = ResolutionLadder(ladder)
    start, goal = as_cell(start, "start"), as_cell(goal, "goal")
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.is_free(cell):
            raise InvalidProblemError(f"{name} {cell} is blocked or out of bounds")
        if not coincides(cell, k):
            raise InvalidProblemError(f"{name} {cell} is not on the k={k} sublattice")
    return start, goal, ladder


@dataclass
class PlannerConfig:
    """Knobs shared by the planners.

    w1 inflates the heuristic inside the non-anchor queues; w2 caps how
    far any queue may run ahead of the anchor and therefore bounds the
    returned cost at w2 times the anchor-space optimum.
    """

    w1: float = 3.0
    w2: float = 3.0
    policy: str = "round_robin"
    timeout: float = math.inf
    seed: int = 0

    def __post_init__(self):
        validate_query(w1=self.w1, w2=self.w2, timeout=self.timeout)
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {tuple(POLICIES)}, got {self.policy!r}")
        self.seed = int(self.seed)


@dataclass
class Problem:
    """A planning query: grid, endpoints and ladder.  Every queue's
    heuristic follows from the map (see grid.flat_heuristic)."""

    grid: GridMap
    start: Cell
    goal: Cell
    ladder: ResolutionLadder = _UNIT_LADDER

    def __post_init__(self):
        self.start, self.goal, self.ladder = validate_query(
            self.grid, self.start, self.goal, self.ladder
        )


@dataclass
class PlanResult:
    """Outcome of one planning run.

    expansions counts state expansions per queue (a single-queue planner
    reports a one-element list).  generated counts distinct states
    materialized.  winning_queue is the queue whose bound test claimed
    the solution, None when no solution was claimed.  bound is the
    suboptimality factor guaranteed for cost, None when unsolved.
    expansion_log, when requested, lists (queue, cell) in expansion
    order.  Every field except wall_time is deterministic for a given
    problem, configuration and seed.
    """

    status: str
    path: list[Cell]
    cost: float
    expansions: list[int]
    generated: int
    wall_time: float
    winning_queue: int | None
    bound: float | None = None
    expansion_log: list[tuple[int, Cell]] | None = None


def check_deadline(
    expansion_count: int, started_at: float, timeout: float, now_fn=time.monotonic
) -> bool:
    """True iff the wall clock has exceeded timeout.

    Only consults the clock every 1000 expansions to keep its overhead
    out of the inner loop; an infinite timeout never triggers.
    """
    due = expansion_count % 1000 == 0 and not math.isinf(timeout)
    return due and now_fn() - started_at > timeout


class OpenList:
    """Min-priority queue of states with lazy deletion.

    Orders by (key, -g, state id): equal keys prefer the larger g (the
    deeper, better-informed state), then the smaller id, making pops
    fully deterministic.  Holds at most one live entry per state:
    inserting an existing state pushes a new entry and marks it live,
    and the superseded one stays in the heap until it reaches the top,
    where pop, peek and min_key discard it (the test is by identity, so
    an equal-valued superseded entry is dropped too).  Stale entries
    are therefore bounded by the inserts of one search.
    """

    __slots__ = ("_heap", "_live")

    def __init__(self):
        self._heap: list[tuple[float, float, int]] = []
        self._live: dict[int, tuple[float, float, int]] = {}

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, sid: int) -> bool:
        return sid in self._live

    def _top(self):
        """The live minimum entry, or None; drops stale entries above it."""
        heap, live = self._heap, self._live
        while heap:
            top = heap[0]
            if live.get(top[2]) is top:
                return top
            heappop(heap)
        return None

    def min_key(self) -> float:
        top = self._top()
        return math.inf if top is None else top[0]

    def peek(self) -> int:
        top = self._top()
        if top is None:
            raise IndexError("peek on empty open list")
        return top[2]

    def insert_or_update(self, sid: int, key: float, g: float) -> None:
        self._live[sid] = entry = (key, -g, sid)
        heappush(self._heap, entry)

    def pop(self) -> int:
        heap, live = self._heap, self._live
        while heap:
            top = heappop(heap)
            sid = top[2]
            if live.get(sid) is top:
                del live[sid]
                return sid
        raise IndexError("pop on empty open list")


class _TableSets(dict):
    """Space mask -> the tables of its set bits, in scale order, built
    the first time a state with that mask is expanded, so that a query
    builds only the sets its states use, however long the ladder."""

    def __init__(self, tables):
        self.tables = tables

    def __missing__(self, m: int):
        self[m] = sets = tuple(self.tables[b] for b in mask_bits(m))
        return sets


class FlatSearch:
    """The one search core: a state table over flat cell ids and the
    best-first loop (run) that MRA* and the single-queue baselines share.

    g, bp and h map a flat id to its cost-to-come, backpointer and
    heuristic; a state is generated once it has an h entry (start and
    goal from the outset), so generated == len(h).  closed maps a flat
    id to the bitmask of queues that expanded it.  Moves come from the
    grid's cached MoveTables, one per entry of scales, decoded in
    direction order.  Queue j keys a state g + weights[j] * h.

    queue_masks gives, per flat id, the queues an improved state (and
    the start) enters unless already closed there; None means queue 0
    alone.  Queue i expands a state with the scale-i table, or, given
    table_masks, with the tables whose bits the state's mask sets, in
    scale order.  bound gates the coarse queues (see run) and is the
    suboptimality factor a solved result reports; timeout is in seconds.
    A subclass with coarse queues sets policy, which picks among them.
    """

    policy = None

    def __init__(self, grid: GridMap, start: Cell, goal: Cell, scales, weights,
                 bound: float, timeout: float = math.inf,
                 queue_masks=None, table_masks=None):
        self.grid = grid
        self.tables = [grid.move_table(k) for k in scales]
        self.weights = tuple(weights)
        self.bound = bound
        self.timeout = timeout
        self.opens = [OpenList() for _ in self.weights]
        self.expansions = [0] * len(self.weights)
        self._queue_masks = queue_masks
        self._table_masks = table_masks
        self._choice = [(t,) for t in self.tables] if table_masks is None else _TableSets(self.tables)
        self._h_of = flat_heuristic(grid, goal)
        self.expansion_log: list[tuple[int, Cell]] | None = None
        self.start_id = grid.flat_index(start)
        self.goal_id = grid.flat_index(goal)
        self.g = {self.start_id: 0.0}
        self.h = {self.start_id: self._h_of(self.start_id)}
        self.bp: dict[int, int] = {}
        self.closed: dict[int, int] = {}
        self.g.setdefault(self.goal_id, math.inf)
        self.h.setdefault(self.goal_id, self._h_of(self.goal_id))
        h0 = self.h[self.start_id]
        for j in mask_bits(1 if queue_masks is None else queue_masks[self.start_id]):
            self.opens[j].insert_or_update(self.start_id, self.weights[j] * h0, 0.0)

    @property
    def generated(self) -> int:
        return len(self.h)

    def expand(self, sid: int, i: int, tables) -> None:
        """Close sid in queue i and relax its moves from each of tables
        in turn: an improved successor takes the new g and backpointer
        and enters every queue of its mask that has not closed it."""
        closed = self.closed
        c = closed.get(sid, 0)
        if c >> i & 1:
            raise SearchCorruptionError(
                f"state {self.grid.cell_of(sid)} expanded twice by queue {i}"
            )
        closed[sid] = c | 1 << i
        self.expansions[i] += 1
        if self.expansion_log is not None:
            self.expansion_log.append((i, self.grid.cell_of(sid)))
        g, h, bp, h_of = self.g, self.h, self.bp, self._h_of
        opens, weights, qmasks = self.opens, self.weights, self._queue_masks
        g_s = g[sid]
        for table in tables:
            m = table.masks[sid]
            offsets, costs = table.offsets, table.costs
            for b in (
                MASK_BITS[m] if m < 512
                else MASK_BITS[m & 511] + MID_BITS[m >> 9 & 511] + HIGH_BITS[m >> 18]
            ):
                nid = sid + offsets[b]
                ng = g_s + costs[b]
                gn = g.get(nid)
                if gn is None:
                    h[nid] = hn = h_of(nid)
                elif ng < gn:
                    hn = h[nid]
                else:
                    continue
                g[nid] = ng
                bp[nid] = sid
                targets = (1 if qmasks is None else qmasks[nid]) & ~closed.get(nid, 0)
                for j in MASK_BITS[targets] if targets < 512 else mask_bits(targets):
                    opens[j].insert_or_update(nid, ng + weights[j] * hn, ng)

    def run(self, log_expansions: bool = False) -> PlanResult:
        """Search until a queue claims the goal, the timeout passes or
        every queue is empty.

        Each iteration the policy picks a nonempty coarse queue i, which
        expands while its best key mk_i <= bound * mk0, the anchor's best
        key; otherwise, or with every coarse queue empty, the anchor
        expands.  Before popping, the expanding queue claims the goal
        once g(goal) <= its key (bound * mk0 when the anchor steps in
        for a blocked pick); a key that overflowed to inf claims nothing.
        With one queue the gate always passes (mk0 <= bound * mk0), so
        this is weighted A*.  The clock is read every 1000 expansions.
        """
        self.expansion_log = [] if log_expansions else None
        started = time.monotonic()
        t0 = time.perf_counter()
        opens = self.opens
        anchor = opens[0]
        coarse = range(1, len(opens))
        # Emptiness is read from the live-entry dicts, in C, rather than
        # through OpenList.__len__.
        live = [ol._live for ol in opens]
        anchor_live = live[0]
        if coarse:
            policy = self.policy
            choose_queue, update, feedback = policy.choose_queue, policy.update, policy.feedback
        g, h, goal_id = self.g, self.h, self.goal_id
        expand, expansions = self.expand, self.expansions
        choice, masks = self._choice, self._table_masks
        bound, timeout = self.bound, self.timeout
        timed = timeout < math.inf
        inf = math.inf
        nonempty = ()
        i, ol = 0, anchor  # the expanding queue, back to the anchor after each coarse step
        while True:
            if coarse:
                nonempty = [j for j in coarse if live[j]]
            if not anchor_live and not nonempty:
                break
            if timed and check_deadline(sum(expansions), started, timeout):
                return self.result(STATUS_TIMEOUT, None, t0)
            mk = anchor.min_key()
            if nonempty:
                mk0 = mk
                i = choose_queue(nonempty)
                ol = opens[i]
                mk = ol.min_key()
                if mk > bound * mk0:  # the gate blocks i: the anchor expands
                    i, ol, mk = 0, anchor, bound * mk0
            if g[goal_id] <= mk < inf:
                return self.result(STATUS_SOLVED, i, t0)
            sid = ol.pop()
            expand(sid, i, choice[i] if masks is None else choice[masks[sid]])
            if i:
                if feedback:
                    update(i, h[ol.peek()] if ol else inf)
                i, ol = 0, anchor
        if g[goal_id] < inf:
            # The goal sits in the anchor keyed g(goal) from the moment it
            # is reached, and every queue claims it before popping it.
            raise SearchCorruptionError("queues drained with the goal reached but unclaimed")
        return self.result(STATUS_EXHAUSTED, None, t0)

    def reconstruct_path(self) -> list[Cell]:
        """Follow backpointers from the goal to the start."""
        chain = []
        sid = self.goal_id
        limit = len(self.g) + 1
        while sid != self.start_id:
            chain.append(sid)
            sid = self.bp.get(sid, -1)
            if sid < 0 or len(chain) > limit:
                raise SearchCorruptionError("broken backpointer chain at goal")
        chain.append(self.start_id)
        chain.reverse()
        return [self.grid.cell_of(s) for s in chain]

    def result(self, status: str, winning_queue: int | None, t0: float) -> PlanResult:
        wall = time.perf_counter() - t0
        solved = status == STATUS_SOLVED
        path = self.reconstruct_path() if solved else []
        return PlanResult(
            status=status,
            path=path,
            cost=path_cost(path) if solved else math.inf,
            expansions=list(self.expansions),
            generated=self.generated,
            wall_time=wall,
            winning_queue=winning_queue,
            bound=self.bound if solved else None,
            expansion_log=self.expansion_log,
        )


class MraSearch(FlatSearch):
    """One MRA* run; see plan() for the usual entry point.

    Queue i searches ladder level i: it keys states g + w1 * h (the
    anchor, queue 0, g + h), expands them with the scale-i move table
    and holds only states on the level's sublattice.  w2 is the gate
    bound and the policy picks among the coarse queues.  The instance
    keeps its full state (open lists, state table, counters) after
    run() returns, which the tests use to poke at internals.
    """

    def __init__(self, problem: Problem, config: PlannerConfig | None = None):
        self.problem = problem
        self.config = config = config or PlannerConfig()
        mults = problem.ladder.multipliers
        super().__init__(
            problem.grid, problem.start, problem.goal,
            mults, (1.0,) + (config.w1,) * (len(mults) - 1), bound=config.w2,
            timeout=config.timeout, queue_masks=problem.grid.space_masks(mults),
        )
        self.policy = make_policy(config.policy, max(1, len(mults) - 1), config.seed)


def plan(
    problem: Problem,
    config: PlannerConfig | None = None,
    *,
    log_expansions: bool = False,
) -> PlanResult:
    """Plan a path with the multi-resolution planner.

    Returns a solved result with cost at most config.w2 times the optimal
    unit-resolution cost, an exhausted result when the whole reachable
    union graph was searched without touching the goal, or a timeout
    result once the wall clock passes config.timeout.
    """
    return MraSearch(problem, config).run(log_expansions=log_expansions)
