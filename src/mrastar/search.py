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
It is one fused loop: it reads the anchor's best key, relaxes each
expanded state's moves and pushes improved successors onto the open
lists' heaps itself, so that OpenList.pop is its only method call per
expansion.
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
    chain_cost,
    check_multiplier,
    coincides,
    flat_heuristic,
    is_integer,
)
from .kernels import mask_bits
from .policies import POLICIES

# Not called by the search core, which reads the grid's move tables and
# sublattice masks and sums costs from predecessor chains instead; bound
# here so that layer tracers (see perfbench/tracing.py) find the same
# names on every planner module.
from .grid import get_space_indices, heuristic, path_cost, successors_at_scale  # noqa: F401

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
        if k > 1 and not coincides(cell, k):  # every cell is on the unit lattice
            raise InvalidProblemError(f"{name} {cell} is not on the k={k} sublattice")
    return start, goal, ladder


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs shared by the planners.

    w1 inflates the heuristic inside the non-anchor queues; w2 caps how
    far any queue may run ahead of the anchor and therefore bounds the
    returned cost at w2 times the anchor-space optimum.  policy is a key
    of policies.POLICIES.  seed, for the dts policy, must be a
    non-negative integer (see grid.is_integer).
    Frozen, so that no field changes after its check; derive a variant
    with dataclasses.replace, which checks it again.
    """

    w1: float = 3.0
    w2: float = 3.0
    policy: str = "round_robin"
    timeout: float = math.inf
    seed: int = 0

    def __post_init__(self):
        validate_query(w1=self.w1, w2=self.w2, timeout=self.timeout)
        if not isinstance(self.policy, str) or self.policy not in POLICIES:
            raise InvalidProblemError(
                f"policy must be one of {tuple(POLICIES)}, got {self.policy!r}")
        if not is_integer(self.seed) or self.seed < 0:
            raise InvalidProblemError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class Problem:
    """A planning query: grid, endpoints and ladder.  Every queue's
    heuristic follows from the map (see grid.flat_heuristic).  Frozen
    like PlannerConfig: dataclasses.replace checks a variant again."""

    grid: GridMap
    start: Cell
    goal: Cell
    ladder: ResolutionLadder = _UNIT_LADDER

    def __post_init__(self):
        checked = validate_query(self.grid, self.start, self.goal, self.ladder)
        for name, value in zip(("start", "goal", "ladder"), checked):
            object.__setattr__(self, name, value)


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
    fully deterministic.  _heap is a heapq list of (key, -g, id) entries
    and _live maps each queued id to its one live entry, found by
    identity: inserting an existing state pushes a new entry and marks
    it live, and the superseded one stays in the heap until it reaches
    the top, where pop, peek and min_key discard it (an equal-valued
    superseded entry is dropped too).  Stale entries are therefore
    bounded by the inserts of one search.  FlatSearch.run pushes and
    reads the anchor's top on _heap/_live directly, by these rules;
    insert_or_update inserts each query's start.
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


class FlatSearch:
    """The one search core: a state table over flat cell ids and the
    best-first loop (run) that MRA* and the single-queue baselines share.

    g, bp and h map a flat id to its cost-to-come, backpointer and
    heuristic; a state is generated once it has an h entry (start and
    goal from the outset), so generated == len(h).  closed maps a flat
    id to the bitmask of queues that expanded it.  Queue j keys a state
    g + weights[j] * h and expands it with the grid's MoveTables of the
    scales in queue_scales[j], in order, each read through its decoded
    moves (MoveTable.moves), but for an empty table (no move at any
    state), which would relax nothing and is left out.  A coarse
    table holds no moves off its sublattice, so wa_union's one queue,
    listing the whole ladder, gives a state the moves of exactly the
    scales whose sublattice holds it.

    queue_masks gives, per flat id, the queues an improved state (and
    the start) enters unless already closed there; None means queue 0
    alone, and then the loop decodes no mask: a state enters queue 0
    unless closed.  bound gates the coarse queues (see run) and is the
    suboptimality factor a solved result reports; timeout is in seconds.
    A subclass with coarse queues sets policy, which picks among them.
    """

    policy = None

    def __init__(self, grid: GridMap, start: Cell, goal: Cell, queue_scales, weights,
                 bound: float, timeout: float = math.inf, queue_masks=None):
        self.grid = grid
        self.tables = [tuple(t for t in map(grid.move_table, scales) if not t.empty)
                       for scales in queue_scales]
        self.weights = tuple(weights)
        self.bound = bound
        self.timeout = timeout
        self.opens = [OpenList() for _ in self.weights]
        self.expansions = [0] * len(self.weights)
        self._queue_masks = queue_masks
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

        Expanding sid in queue i closes it there and relaxes its moves
        from each of queue i's tables in turn, as the (offset, cost) pairs
        that table.moves caches for sid's mask: an improved successor
        takes the new g and backpointer and enters every queue of its
        mask that has not closed it.  A successor whose mask is 1 (or
        any, with queue_masks None) enters only the anchor, so only the
        anchor can have closed it: it is pushed there unless closed,
        without decoding a mask.  The coarse queues' nonempty list is
        built only while one of them holds a state.  The loop reads the
        anchor's top and pushes onto the open lists' _heap/_live itself;
        OpenList.pop is its one call per expansion.
        """
        self.expansion_log = log = [] if log_expansions else None
        started = time.monotonic()
        t0 = time.perf_counter()
        opens = self.opens
        anchor = opens[0]
        coarse = range(1, len(opens))
        heaps = [ol._heap for ol in opens]
        # Emptiness is read from the live-entry dicts, in C, rather than
        # through OpenList.__len__.
        live = [ol._live for ol in opens]
        anchor_heap, anchor_live = heaps[0], live[0]
        coarse_live = live[1:]
        if coarse:
            policy = self.policy
            choose_queue, update, feedback = policy.choose_queue, policy.update, policy.feedback
        g, h, bp, closed, goal_id = self.g, self.h, self.bp, self.closed, self.goal_id
        h_of, weights, w0, qmasks = self._h_of, self.weights, self.weights[0], self._queue_masks
        expansions, cell_of, tables = self.expansions, self.grid.cell_of, self.tables
        bound, timeout = self.bound, self.timeout
        timed = timeout < math.inf
        inf = math.inf
        push = heappush
        i, ol = 0, anchor  # the expanding queue, back to the anchor after each coarse step
        while True:
            nonempty = [j for j in coarse if live[j]] if any(coarse_live) else ()
            if not anchor_live and not nonempty:
                break
            if timed and check_deadline(sum(expansions), started, timeout):
                return self.result(STATUS_TIMEOUT, None, t0)
            mk = inf  # the anchor's best key, its stale tops dropped in place
            while anchor_heap:
                top = anchor_heap[0]
                if anchor_live.get(top[2]) is top:
                    mk = top[0]
                    break
                heappop(anchor_heap)
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
            c = closed.get(sid, 0)
            if c >> i & 1:
                raise SearchCorruptionError(f"state {cell_of(sid)} expanded twice by queue {i}")
            closed[sid] = c | 1 << i
            expansions[i] += 1
            if log is not None:
                log.append((i, cell_of(sid)))
            g_s = g[sid]
            for table in tables[i]:
                for off, cost in table.moves[table.masks[sid]]:
                    nid = sid + off
                    ng = g_s + cost
                    gn = g.get(nid)
                    if gn is None:
                        h[nid] = hn = h_of(nid)
                    elif ng < gn:
                        hn = h[nid]
                    else:
                        continue
                    g[nid] = ng
                    bp[nid] = sid
                    if qmasks is None or (qm := qmasks[nid]) == 1:
                        if nid not in closed:
                            anchor_live[nid] = entry = (ng + w0 * hn, -ng, nid)
                            push(anchor_heap, entry)
                        continue
                    targets = qm & ~closed.get(nid, 0)
                    for j in mask_bits(targets):
                        live[j][nid] = entry = (ng + weights[j] * hn, -ng, nid)
                        push(heaps[j], entry)
            if i:
                if feedback:
                    update(i, h[ol.peek()] if ol else inf)
                i, ol = 0, anchor
        if g[goal_id] < inf:
            # The goal sits in the anchor keyed g(goal) from the moment it
            # is reached, and every queue claims it before popping it.
            raise SearchCorruptionError("queues drained with the goal reached but unclaimed")
        return self.result(STATUS_EXHAUSTED, None, t0)

    def reconstruct_path(self) -> list[int]:
        """The flat ids from the start to the goal, by backpointers."""
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
        return chain

    def result(self, status: str, winning_queue: int | None, t0: float) -> PlanResult:
        wall = time.perf_counter() - t0
        solved = status == STATUS_SOLVED
        chain = self.reconstruct_path() if solved else []
        return PlanResult(
            status=status,
            path=[self.grid.cell_of(s) for s in chain],
            cost=chain_cost(self.grid, chain) if solved else math.inf,
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
    bound and the policy picks among the coarse queues; a one-level
    ladder has none and keeps policy None.  The instance keeps its full
    state (open lists, state table, counters) after run() returns,
    which the tests use to poke at internals.
    """

    def __init__(self, problem: Problem, config: PlannerConfig | None = None):
        self.problem = problem
        self.config = config = config or PlannerConfig()
        mults = problem.ladder.multipliers
        super().__init__(
            problem.grid, problem.start, problem.goal, [(k,) for k in mults],
            (1.0,) + (config.w1,) * (len(mults) - 1), bound=config.w2,
            timeout=config.timeout, queue_masks=problem.grid.space_masks(mults),
        )
        if len(mults) > 1:
            self.policy = POLICIES[config.policy](len(mults) - 1, config.seed)


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
