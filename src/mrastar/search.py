"""Multi-queue bounded-suboptimal search over a resolution ladder.

The planner runs one weighted best-first search per ladder level, all
sharing a single table of states (g values, backpointers and closed
bits).  Queue 0, the anchor, searches the unit-resolution space with an
admissible key g + h and gates the others: a coarser queue may only
expand while its best key stays within w2 times the anchor's best key.
Any solution claimed under that gate costs at most w2 times the optimal
cost in the anchor space, even though coarse queues use the inflated key
g + w1*h and no state is ever re-expanded by the same queue.
FlatSearch.run is that loop; with the anchor queue alone it is the
baselines' weighted A*.  It is one fused loop: it reads the anchor's best key and the picked
coarse queue's, relaxes each expanded state's moves and pushes improved
successors onto the open lists' heaps itself, so that OpenList.pop is
its only method call per expansion.  Its g values and closed bits are
dense lists over flat cell ids, reused from query to query: a run that
returns hands them back, reset, to a free list that the next search
takes them from (take_tables, put_back_tables, which resets a pair at
its holder's start and predecessor map's keys).  The exact oracle,
baselines.dijkstra_optimal, borrows its dist and done from the same
list by the same two helpers, and checks its endpoints by the same
validate_query, the planners' one check of a query, which judges each
endpoint by grid.check_cell.  A pair costs 16 B per cell of the
largest map it served, and a process holds one per search or oracle
call that ran at once.  Every h is grid.heuristic's float.  A run
reads one clock, time.perf_counter, and returns through one exit,
_finish.
"""

import math
import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import InvalidProblemError, MrastarError, SearchCorruptionError
from .grid import (
    Cell,
    GridMap,
    ResolutionLadder,
    check_cell,
    check_int,
    check_multiplier,
    check_real,
    coincides,
    heuristic,
    walk_chain,
)
from .kernels import SQRT2, mask_bits
from .policies import POLICIES

# Not called by the search core, which reads the grid's move tables and
# sublattice masks and costs its predecessor chain instead, and calls
# heuristic (imported above) once per query, for the start's key; bound
# here so that layer tracers (see perfbench/tracing.py) find the same
# names on every planner module.
from .grid import get_space_indices, path_cost, successors_at_scale  # noqa: F401

STATUS_SOLVED = "solved"
STATUS_EXHAUSTED = "exhausted"
STATUS_TIMEOUT = "timeout"

# shared by every query that names no ladder: frozen, so built only once
_UNIT_LADDER = ResolutionLadder((1,))

# The (g, closed) list pairs of no running search or oracle call, every
# entry inf / 0: take_tables hands one out (or makes one) and
# put_back_tables takes it back reset.  A process holds one pair per
# search or baselines.dijkstra_optimal call that ran at once, each as
# long as the largest map searched on it, 16 B per cell.  Only list.pop
# and list.append touch it, each atomic under the interpreter lock, so
# searches in several threads share it safely.
_FREE_TABLES: list[tuple[list[float], list[int]]] = []


def take_tables(size: int) -> tuple[list[float], list[int]]:
    """A (g, closed) pair off the free list, or a new one, grown to at
    least size entries: every entry inf / 0, and no other caller holds
    it until put_back_tables."""
    try:  # one call, so that two threads never take one pair
        g, closed = _FREE_TABLES.pop()
    except IndexError:
        g, closed = [], []
    grow = size - len(g)
    if grow > 0:
        g += [math.inf] * grow
        closed += [0] * grow
    return g, closed


def put_back_tables(g: list[float], closed: list[int], bp, start: int) -> None:
    """Reset g and closed to inf and 0 at flat id start and at the keys
    of bp, the predecessor map of the search that held the pair (every
    entry it set, see FlatSearch), and put the pair back on the free
    list.  A holder that raises skips this and keeps its pair, so that
    whatever it left set never reaches the free list."""
    inf = math.inf
    g[start] = inf
    closed[start] = 0
    for sid in bp:
        g[sid] = inf
        closed[sid] = 0
    _FREE_TABLES.append((g, closed))


def check_weights(timeout: float = math.inf, **weights: float) -> None:
    """The one check of a planner's timeout and of every weight passed
    by keyword, shared by PlannerConfig and validate_query: each a real
    number (see grid.check_real), a weight finite and >= 1, the timeout
    > 0 (inf means none).  Raises InvalidProblemError."""
    for name, w in weights.items():
        if not 1.0 <= check_real(name, w) < math.inf:  # written so that NaN fails
            raise InvalidProblemError(f"{name} must be a finite number >= 1, got {w}")
    if not check_real("timeout", timeout) > 0:
        raise InvalidProblemError(f"timeout must be positive, got {timeout}")


def validate_query(grid: GridMap, start: Cell, goal: Cell, ladder=_UNIT_LADDER, *,
                   multiplier: int = 1, timeout: float = math.inf,
                   **weights: float) -> tuple[Cell, Cell, ResolutionLadder]:
    """The one check of a planning query, shared by Problem, the
    baselines and the exact oracle (which answers inf where it refuses);
    raises InvalidProblemError up front.

    timeout and the weights go through check_weights.  The endpoints
    become int tuples (see check_cell, which names one reason) that
    must be free cells on the sublattice of the odd scale `multiplier`
    (checked by grid.check_multiplier under that name), and the ladder becomes a ResolutionLadder (a ResolutionLadder comes
    back as is).  Returns (start, goal, ladder).
    """
    check_weights(timeout, **weights)
    k = check_multiplier("multiplier", multiplier)
    if not isinstance(ladder, ResolutionLadder):
        ladder = ResolutionLadder(ladder)
    start, goal = check_cell(grid, start, "start"), check_cell(grid, goal, "goal")
    for name, cell in (("start", start), ("goal", goal)):
        if grid.blocked.item(cell[::-1]):
            raise InvalidProblemError(f"{name} {cell} is blocked")
        if k > 1 and not coincides(cell, k):  # every cell is on the unit lattice
            raise InvalidProblemError(f"{name} {cell} is not on the k={k} sublattice")
    return start, goal, ladder


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs shared by the planners.

    w1 inflates the heuristic inside the non-anchor queues; w2 caps how
    far any queue may run ahead of the anchor and therefore bounds the
    returned cost at w2 times the anchor-space optimum.  policy is a key
    of policies.POLICIES.  The weights and timeout are checked by
    check_weights, and seed, for the dts policy, by grid.check_int.
    Frozen, so that no field changes after its check; derive a variant
    with dataclasses.replace, which checks it again.
    """

    w1: float = 3.0
    w2: float = 3.0
    policy: str = "round_robin"
    timeout: float = math.inf
    seed: int = 0

    def __post_init__(self):
        check_weights(self.timeout, w1=self.w1, w2=self.w2)
        if not isinstance(self.policy, str) or self.policy not in POLICIES:
            raise InvalidProblemError(
                f"policy must be one of {tuple(POLICIES)}, got {self.policy!r}")
        object.__setattr__(self, "seed", check_int("seed", self.seed))


@dataclass(frozen=True)
class Problem:
    """A planning query: grid, endpoints and ladder.  Every queue's
    heuristic follows from the map (see grid.heuristic).  Frozen
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
    reads the anchor's and the picked coarse queue's tops on _heap/_live
    directly, by these rules: it never calls min_key, and calls peek only
    for a policy's feedback.  insert_or_update inserts each query's start.
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

    g and closed are lists indexed by flat id, at least as long as the
    map: a state's cost-to-come (inf while unreached) and the bitmask of
    queues that expanded it (0 for none).  bp and h are dicts from a
    flat id to its backpointer and heuristic, grid.heuristic of its cell
    and the goal (run computes it inline, by the same expression); a state
    is generated once it has an h entry (start and goal from the outset),
    so generated == len(h).  A search sets g and closed only at its
    start and at the cells it reached, and every reached cell has a
    predecessor: so every id whose g or closed entry is not the default
    is the start or a key of bp, where put_back_tables resets them, for
    this core and the exact oracle alike.  The g/closed pair comes from
    the module's free list, and run hands it back once it returns (see
    run); after that the instance has g and closed None, and keeps its
    open lists, bp, h and counters.
    Queue j keys a state g + weights[j] * h and expands it with the
    grid's MoveTables of the scales in queue_scales[j], in order, each
    read through its decoded moves (MoveTable.moves), but for an empty
    table (no move at any state), which would relax nothing and is left
    out.  A coarse table holds no moves off its sublattice, so
    wa_union's one queue, listing the whole ladder, gives a state the
    moves of exactly the scales whose sublattice holds it.

    An improved state (and the start) enters each queue whose first
    scale's sublattice holds it (the grid's space_masks) unless closed
    there; with one queue the loop decodes no mask.  bound gates the
    coarse queues (see run) and is the suboptimality factor a solved
    result reports; timeout is in seconds.
    A subclass with coarse queues sets policy, which picks among them.
    """

    policy = None

    def __init__(self, grid: GridMap, start: Cell, goal: Cell, queue_scales, weights,
                 bound: float, timeout: float = math.inf):
        self.grid = grid
        self.tables = [tuple(t for t in map(grid.move_table, scales) if not t.empty)
                       for scales in queue_scales]
        self.weights = tuple(weights)
        self.bound = bound
        self.timeout = timeout
        self.opens = [OpenList() for _ in self.weights]
        self.expansions = [0] * len(self.weights)
        self._queue_masks = queue_masks = None if len(queue_scales) == 1 else (
            grid.space_masks(tuple(scales[0] for scales in queue_scales)))
        self.expansion_log: list[tuple[int, Cell]] | None = None
        self.start_id = grid.flat_index(start)
        self.goal_id = grid.flat_index(goal)
        g, closed = take_tables(grid.blocked.size)
        g[self.start_id] = 0.0
        self.g: list[float] | None = g
        self.closed: list[int] | None = closed
        h0 = heuristic(start, goal)
        self.h = {self.start_id: h0}
        self.bp: dict[int, int] = {}
        self.h.setdefault(self.goal_id, 0.0)
        self._ran = False
        for j in mask_bits(1 if queue_masks is None else queue_masks[self.start_id]):
            self.opens[j].insert_or_update(self.start_id, self.weights[j] * h0, 0.0)

    @property
    def generated(self) -> int:
        return len(self.h)

    def run(self, log_expansions: bool = False) -> PlanResult:
        """Search until a queue claims the goal, the timeout passes or
        every queue is empty.  A search runs once: a second call raises
        MrastarError.

        Each iteration the policy picks a nonempty coarse queue i, which
        expands while its best key mk_i <= bound * mk0, the anchor's best
        key; otherwise, or with every coarse queue empty, the anchor
        expands.  Before popping, the expanding queue claims the goal
        once g(goal) <= its key (bound * mk0 when the anchor steps in
        for a blocked pick); a key that overflowed to inf claims nothing.
        With one queue the gate always passes (mk0 <= bound * mk0), so
        this is weighted A*.  Under a finite timeout the clock that
        times wall_time is also read every 1000 expansions.

        Expanding sid in queue i closes it there and relaxes its moves
        from each of queue i's tables in turn, as the (offset, cost) pairs
        that table.moves caches for sid's mask: an improved successor
        takes the new g and backpointer and enters every queue of its
        mask that has not closed it.  A successor generated here gets
        its h inline, with no call: grid.heuristic's expression,
        octile in 2D and math.hypot of the axis deltas in 3D, the case
        picked once per run.  A successor whose mask is 1 (or
        any, in a one-queue search) enters only the anchor, so only the
        anchor can have closed it: it is pushed there unless closed,
        without decoding a mask.

        The list of nonempty coarse queues that the policy picks from is
        kept: it is built before the first iteration and rebuilt only
        after a push whose target mask has a bit above 0 or a coarse
        queue's pop, the only steps that change a coarse _live dict
        (dropping stale heap tops does not).  With one queue it stays
        empty.  The loop reads the anchor's top, and the picked coarse
        queue's for the gate, and pushes onto the open lists'
        _heap/_live itself; OpenList.pop is its one call per expansion,
        and OpenList.min_key is not called.  A solved result's path and
        cost come from one walk back along bp (grid.walk_chain).

        Once the result is built, the entries of g and closed at the
        start and bp's keys are reset to inf and 0 and the pair goes
        back to the free list.  A run that raises keeps its pair: g and
        closed stay readable on the instance, and whatever it left set
        never reaches the free list.
        """
        if self._ran:
            raise MrastarError("this search has already run; build a new one per query")
        self._ran = True
        self.expansion_log = log = [] if log_expansions else None
        t0 = time.perf_counter()
        opens = self.opens
        anchor = opens[0]
        coarse = range(1, len(opens))
        heaps = [ol._heap for ol in opens]
        # Emptiness is read from the live-entry dicts, in C, rather than
        # through OpenList.__len__.
        live = [ol._live for ol in opens]
        anchor_heap, anchor_live = heaps[0], live[0]
        if coarse:
            policy = self.policy
            choose_queue, update, feedback = policy.choose_queue, policy.update, policy.feedback
        g, h, bp, closed, goal_id = self.g, self.h, self.bp, self.closed, self.goal_id
        weights, w0, qmasks = self.weights, self.weights[0], self._queue_masks
        expansions, cell_of, tables = self.expansions, self.grid.cell_of, self.tables
        # the heuristic's terms, as in grid.heuristic
        ext = self.grid.extents
        w, flat, sqrt2, hypot = ext[0], len(ext) == 2, SQRT2, math.hypot
        if flat:
            gx, gy = cell_of(goal_id)
        else:
            wh = w * ext[1]
            gx, gy, gz = cell_of(goal_id)
        bound, timed = self.bound, self.timeout < math.inf
        deadline = t0 + self.timeout
        inf = math.inf
        push = heappush
        i, ol = 0, anchor  # the expanding queue, back to the anchor after each coarse step
        # The nonempty coarse queues, rebuilt only once a push may have
        # filled one or a pop emptied one: dropping stale tops leaves
        # every _live dict as it is.
        nonempty, stale = (), bool(coarse)
        while True:
            if stale:
                nonempty = [j for j in coarse if live[j]]
                stale = False
            if not anchor_live and not nonempty:
                break
            if timed and not sum(expansions) % 1000 and time.perf_counter() > deadline:
                return self._finish(STATUS_TIMEOUT, None, t0)
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
                heap, lv = heaps[i], live[i]
                while True:  # i's best key, its stale tops dropped; i holds a state
                    top = heap[0]
                    if lv.get(top[2]) is top:
                        mk = top[0]
                        break
                    heappop(heap)
                if mk > bound * mk0:  # the gate blocks i: the anchor expands
                    i, mk = 0, bound * mk0
                else:
                    ol = opens[i]
            if g[goal_id] <= mk < inf:
                return self._finish(STATUS_SOLVED, i, t0)
            sid = ol.pop()
            c = closed[sid]
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
                    gn = g[nid]
                    if ng >= gn:
                        continue
                    if gn < inf:
                        hn = h[nid]
                    else:  # first reached (or the goal, whose h is 0 either way)
                        if flat:
                            dx, dy = abs(nid % w - gx), abs(nid // w - gy)
                            hn = dx * sqrt2 + (dy - dx) if dx < dy else dy * sqrt2 + (dx - dy)
                        else:
                            hn = hypot(nid % w - gx, nid % wh // w - gy, nid // wh - gz)
                        h[nid] = hn
                    g[nid] = ng
                    bp[nid] = sid
                    if qmasks is None or (qm := qmasks[nid]) == 1:
                        if not closed[nid]:
                            anchor_live[nid] = entry = (ng + w0 * hn, -ng, nid)
                            push(anchor_heap, entry)
                        continue
                    targets = qm & ~closed[nid]
                    for j in mask_bits(targets):
                        live[j][nid] = entry = (ng + weights[j] * hn, -ng, nid)
                        push(heaps[j], entry)
                    if targets > 1:
                        stale = True
            if i:
                stale = True
                if feedback:
                    update(i, h[ol.peek()] if ol else inf)
                i, ol = 0, anchor
        if g[goal_id] < inf:
            # The goal sits in the anchor keyed g(goal) from the moment it
            # is reached, and every queue claims it before popping it.
            raise SearchCorruptionError("queues drained with the goal reached but unclaimed")
        return self._finish(STATUS_EXHAUSTED, None, t0)

    def _finish(self, status: str, winning_queue: int | None, t0: float) -> PlanResult:
        """run's one exit: the PlanResult of a run that ended with
        status, timed from perf_counter() reading t0, then the g/closed
        pair, reset, back on the free list, once, and dropped here.  A
        solved result's path and cost come from one walk back along bp
        (grid.walk_chain); a broken chain raises SearchCorruptionError
        and keeps the pair."""
        wall = time.perf_counter() - t0
        solved = status == STATUS_SOLVED
        if solved:
            path, cost = walk_chain(self.grid, self.bp, self.start_id, self.goal_id)
        else:
            path, cost = [], math.inf
        res = PlanResult(
            status=status,
            path=path,
            cost=cost,
            expansions=list(self.expansions),
            generated=self.generated,
            wall_time=wall,
            winning_queue=winning_queue,
            bound=self.bound if solved else None,
            expansion_log=self.expansion_log,
        )
        put_back_tables(self.g, self.closed, self.bp, self.start_id)
        self.g = self.closed = None
        return res


class MraSearch(FlatSearch):
    """One MRA* run; see plan() for the usual entry point.

    Queue i searches ladder level i: it keys states g + w1 * h (the
    anchor, queue 0, g + h), expands them with the scale-i move table
    and holds only states on the level's sublattice.  w2 is the gate
    bound and the policy picks among the coarse queues; a one-level
    ladder has none and keeps policy None.  After run() returns, the
    instance keeps its open lists, bp, h and counters, which the tests
    use to poke at internals, but not g and closed, which go back to
    the free list (see FlatSearch).
    """

    def __init__(self, problem: Problem, config: PlannerConfig | None = None):
        self.problem = problem
        self.config = config = config or PlannerConfig()
        mults = problem.ladder.multipliers
        super().__init__(
            problem.grid, problem.start, problem.goal, [(k,) for k in mults],
            (1.0,) + (config.w1,) * (len(mults) - 1), bound=config.w2, timeout=config.timeout,
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
