"""Multi-queue bounded-suboptimal search over a resolution ladder.

The planner runs one weighted best-first search per ladder level, all
sharing a single table of states (g values and backpointers).  Queue 0,
the anchor, searches the unit-resolution space with an admissible key
g + h and gates the others: a coarser queue may only expand while its
best key stays within w2 times the anchor's best key.  Any solution
claimed under that gate costs at most w2 times the optimal cost in the
anchor space, even though coarse queues use the inflated key g + w1*h
and no state is ever re-expanded by the same queue.
"""

import math
import time
from dataclasses import dataclass, field

from .errors import InvalidProblemError, SearchCorruptionError
from .grid import (
    HEURISTICS,
    MASK_BITS,
    Cell,
    GridMap,
    ResolutionLadder,
    check_multiplier,
    coincides,
    flat_heuristic,
    mask_bits,
    path_cost,
)
from .policies import make_policy

# Not called by the search core, which reads the grid's move tables and
# sublattice masks instead; bound here so that layer tracers (see
# perfbench/tracing.py) find the same names on every planner module.
from .grid import get_space_indices, heuristic, successors_at_scale  # noqa: F401

STATUS_SOLVED = "solved"
STATUS_EXHAUSTED = "exhausted"
STATUS_TIMEOUT = "timeout"

POLICY_NAMES = ("round_robin", "dts")


def validate_query(
    grid: GridMap | None = None,
    start: Cell = (),
    goal: Cell = (),
    ladder=(1,),
    heuristic: str = "auto",
    *,
    sublattice: int = 1,
    **weights: float,
) -> tuple[Cell, Cell, ResolutionLadder, str] | None:
    """The one check of a planning query, shared by PlannerConfig,
    Problem and the baselines; raises InvalidProblemError up front.

    Every weight passed by keyword must be a finite number >= 1.  Given
    only weights (PlannerConfig's case) it returns None.  Given a grid,
    the endpoints become int tuples that must be free cells on the
    sublattice of the odd scale `sublattice`, the ladder becomes a
    ResolutionLadder, and the heuristic is resolved: "auto" is octile on
    2D maps and euclidean otherwise, and octile needs a 2D map.  Returns
    (start, goal, ladder, heuristic).
    """
    for name, w in weights.items():
        if not 1.0 <= w < math.inf:  # written so that NaN fails
            raise InvalidProblemError(f"{name} must be a finite number >= 1, got {w}")
    if grid is None:
        return None
    k = check_multiplier(sublattice)
    if not isinstance(ladder, ResolutionLadder):
        ladder = ResolutionLadder(tuple(ladder))
    start, goal = (tuple(int(c) for c in cell) for cell in (start, goal))
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.is_free(cell):
            raise InvalidProblemError(f"{name} {cell} is blocked or out of bounds")
        if not coincides(cell, k):
            raise InvalidProblemError(f"{name} {cell} is not on the k={k} sublattice")
    if heuristic == "auto":
        heuristic = "octile" if grid.dim == 2 else "euclidean"
    if heuristic not in HEURISTICS:
        raise InvalidProblemError(
            f"heuristic must be one of {HEURISTICS} or 'auto', got {heuristic!r}"
        )
    if heuristic == "octile" and grid.dim != 2:
        raise InvalidProblemError("octile heuristic requires a 2D map")
    return start, goal, ladder, heuristic


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
        validate_query(w1=self.w1, w2=self.w2)
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"policy must be one of {POLICY_NAMES}, got {self.policy!r}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        self.seed = int(self.seed)


@dataclass
class Problem:
    """A planning query: grid, endpoints, ladder, heuristic choice.

    heuristic "auto" resolves to octile on 2D maps and euclidean on 3D.
    """

    grid: GridMap
    start: Cell
    goal: Cell
    ladder: ResolutionLadder = field(default_factory=lambda: ResolutionLadder((1,)))
    heuristic: str = "auto"

    def __post_init__(self):
        self.start, self.goal, self.ladder, self.heuristic = validate_query(
            self.grid, self.start, self.goal, self.ladder, self.heuristic
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


def key_value(g: float, h: float, i: int, w1: float) -> float:
    """Priority of a state in queue i: g + h for the anchor (i = 0),
    g + w1*h for every other queue."""
    return g + h if i == 0 else g + w1 * h


def check_deadline(
    expansion_count: int, started_at: float, timeout: float, now_fn=time.monotonic
) -> bool:
    """True iff the wall clock has exceeded timeout.

    Only consults the clock every 1000 expansions to keep its overhead
    out of the inner loop; an infinite timeout never triggers.
    """
    if expansion_count % 1000 != 0:
        return False
    if math.isinf(timeout):
        return False
    return (now_fn() - started_at) > timeout


class OpenList:
    """Addressable binary min-heap of states.

    Orders by (key, -g, state id): equal keys prefer the larger g (the
    deeper, better-informed state), then the smaller id, making pops
    fully deterministic.  Holds at most one entry per state; inserting
    an existing state updates it in place.
    """

    __slots__ = ("_heap", "_pos")

    def __init__(self):
        self._heap: list[tuple[float, float, int]] = []
        self._pos: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, sid: int) -> bool:
        return sid in self._pos

    def min_key(self) -> float:
        return self._heap[0][0] if self._heap else math.inf

    def peek(self) -> int:
        if not self._heap:
            raise IndexError("peek on empty open list")
        return self._heap[0][2]

    def insert_or_update(self, sid: int, key: float, g: float) -> None:
        entry = (key, -g, sid)
        pos = self._pos.get(sid)
        if pos is None:
            self._heap.append(entry)
            self._sift_up(len(self._heap) - 1)
        else:
            old = self._heap[pos]
            self._heap[pos] = entry
            if entry < old:
                self._sift_up(pos)
            else:
                self._sift_down(pos)

    def pop(self) -> int:
        if not self._heap:
            raise IndexError("pop on empty open list")
        top = self._heap[0]
        last = self._heap.pop()
        del self._pos[top[2]]
        if self._heap:
            self._heap[0] = last
            self._pos[last[2]] = 0
            self._sift_down(0)
        return top[2]

    def _sift_up(self, i: int) -> None:
        heap = self._heap
        entry = heap[i]
        while i > 0:
            parent = (i - 1) // 2
            if heap[parent] <= entry:
                break
            heap[i] = heap[parent]
            self._pos[heap[i][2]] = i
            i = parent
        heap[i] = entry
        self._pos[entry[2]] = i

    def _sift_down(self, i: int) -> None:
        heap = self._heap
        n = len(heap)
        entry = heap[i]
        while True:
            left = 2 * i + 1
            if left >= n:
                break
            child = left
            right = left + 1
            if right < n and heap[right] < heap[left]:
                child = right
            if entry <= heap[child]:
                break
            heap[i] = heap[child]
            self._pos[heap[i][2]] = i
            i = child
        heap[i] = entry
        self._pos[entry[2]] = i


class FlatSearch:
    """State table over flat cell ids, shared by MRA* and the single-queue
    baselines.

    g, bp and h map a flat id to its cost-to-come, backpointer and
    heuristic; a state is generated once it has an h entry (start and
    goal from the outset), so generated == len(h).  closed maps a flat
    id to the bitmask of queues that expanded it.  Moves come from the
    grid's cached MoveTables, one per entry of scales, decoded in
    direction order.  Queue j keys a state g + weights[j] * h.

    queue_masks gives, per flat id, the queues an improved state enters
    (unless already closed there); None means queue 0 alone.
    """

    def __init__(self, grid: GridMap, start: Cell, goal: Cell, hkind: str,
                 scales, weights, queue_masks=None):
        self.grid = grid
        self.tables = [grid.move_table(k) for k in scales]
        self.weights = tuple(weights)
        self.opens = [OpenList() for _ in self.weights]
        self.expansions = [0] * len(self.weights)
        self._queue_masks = queue_masks
        self._h_of = flat_heuristic(grid, goal, hkind)
        self.expansion_log: list[tuple[int, Cell]] | None = None
        self.start_id = grid.flat_index(start)
        self.goal_id = grid.flat_index(goal)
        self.g = {self.start_id: 0.0}
        self.h = {self.start_id: self._h_of(self.start_id)}
        self.bp: dict[int, int] = {}
        self.closed: dict[int, int] = {}
        if self.goal_id not in self.g:
            self.g[self.goal_id] = math.inf
            self.h[self.goal_id] = self._h_of(self.goal_id)

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
            for b in MASK_BITS[m] if m < 512 else mask_bits(m):
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

    def result(self, status: str, winning_queue: int | None, bound: float,
               t0: float) -> PlanResult:
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
            bound=bound if solved else None,
            expansion_log=self.expansion_log,
        )


class MraSearch(FlatSearch):
    """One planning run; see plan() for the usual entry point.

    Queue i searches ladder level i: it expands with the scale-i move
    table, tables[i], and holds only states on the level's sublattice.
    The instance keeps its full state (open lists, state table,
    counters) after run() returns, which the tests use to poke at
    internals.
    """

    def __init__(self, problem: Problem, config: PlannerConfig | None = None):
        self.problem = problem
        self.config = config or PlannerConfig()
        self.ladder = problem.ladder
        self.n_queues = len(self.ladder)
        self.w1 = self.config.w1
        self.w2 = self.config.w2
        self.spaces = problem.grid.space_masks(self.ladder.multipliers)
        super().__init__(
            problem.grid, problem.start, problem.goal, problem.heuristic,
            self.ladder.multipliers, (1.0,) + (self.w1,) * (self.n_queues - 1),
            self.spaces,
        )
        self.policy = make_policy(
            self.config.policy, max(1, self.n_queues - 1), self.config.seed
        )
        h0 = self.h[self.start_id]
        for i in mask_bits(self.spaces[self.start_id]):
            self.opens[i].insert_or_update(
                self.start_id, key_value(0.0, h0, i, self.w1), 0.0
            )

    def min_key(self, i: int) -> float:
        return self.opens[i].min_key()

    def run(self, log_expansions: bool = False, gate_probe=None) -> PlanResult:
        """Execute the search to completion, timeout or exhaustion.

        gate_probe, when given, is called with the anchor's current min
        key each iteration (used by tests to watch the gate).
        """
        self.expansion_log = [] if log_expansions else None
        started = time.monotonic()
        t0 = time.perf_counter()
        opens = self.opens
        g, h = self.g, self.h
        goal_id = self.goal_id
        tables = [(t,) for t in self.tables]
        expand = self.expand
        total = 0
        is_dts = self.config.policy == "dts"
        w2 = self.w2
        while any(opens):
            if check_deadline(total, started, self.config.timeout):
                return self.result(STATUS_TIMEOUT, None, w2, t0)
            nonempty = [i for i in range(1, self.n_queues) if opens[i]]
            i = self.policy.choose_queue(nonempty) if nonempty else 0
            mk0 = opens[0].min_key()
            if gate_probe is not None:
                gate_probe(mk0)
            mk_i = opens[i].min_key()
            if mk_i <= w2 * mk0:
                # mk_i can only be inf when w1 * h overflows; it claims nothing.
                if g[goal_id] <= mk_i < math.inf:
                    return self.result(STATUS_SOLVED, i, w2, t0)
                expand(opens[i].pop(), i, tables[i])
                if is_dts and i != 0:
                    top_h = h[opens[i].peek()] if len(opens[i]) else math.inf
                    self.policy.update(i, top_h)
            else:
                if g[goal_id] <= w2 * mk0:
                    return self.result(STATUS_SOLVED, 0, w2, t0)
                expand(opens[0].pop(), 0, tables[0])
            total += 1
        if g[goal_id] < math.inf:
            # Defensive: queues drained in the same iteration the goal
            # became claimable.  Cost bound still holds.
            return self.result(STATUS_SOLVED, None, w2, t0)
        return self.result(STATUS_EXHAUSTED, None, w2, t0)


def plan(
    problem: Problem,
    config: PlannerConfig | None = None,
    *,
    log_expansions: bool = False,
    gate_probe=None,
) -> PlanResult:
    """Plan a path with the multi-resolution planner.

    Returns a solved result with cost at most config.w2 times the optimal
    unit-resolution cost, an exhausted result when the whole reachable
    union graph was searched without touching the goal, or a timeout
    result once the wall clock passes config.timeout.
    """
    return MraSearch(problem, config).run(
        log_expansions=log_expansions, gate_probe=gate_probe
    )
