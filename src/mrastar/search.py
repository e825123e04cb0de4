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
    Cell,
    GridMap,
    ResolutionLadder,
    check_multiplier,
    coincides,
    get_space_indices,
    heuristic,
    path_cost,
    successors_at_scale,
)
from .policies import make_policy

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


class _Node:
    __slots__ = ("g", "bp", "closed", "h", "spaces")

    def __init__(self, g: float, bp: int, h: float, spaces: tuple[int, ...]):
        self.g = g
        self.bp = bp
        self.closed = 0  # bitmask over queue indices
        self.h = h
        self.spaces = spaces


class MraSearch:
    """One planning run; see plan() for the usual entry point.

    The instance keeps its full state (open lists, node table, counters)
    after run() returns, which the tests use to poke at internals.
    """

    def __init__(self, problem: Problem, config: PlannerConfig | None = None):
        self.problem = problem
        self.config = config or PlannerConfig()
        self.grid = problem.grid
        self.ladder = problem.ladder
        self.n_queues = len(self.ladder)
        self.w1 = self.config.w1
        self.w2 = self.config.w2
        self.opens = [OpenList() for _ in range(self.n_queues)]
        self.nodes: dict[int, _Node] = {}
        self.expansions = [0] * self.n_queues
        self.generated = 0
        self.policy = make_policy(
            self.config.policy, max(1, self.n_queues - 1), self.config.seed
        )
        self._goal_cell = problem.goal
        self._hkind = problem.heuristic
        self._log: list[tuple[int, Cell]] | None = None
        self.start_id = self.grid.flat_index(problem.start)
        self.goal_id = self.grid.flat_index(problem.goal)
        start = self._make_node(problem.start)
        start.g = 0.0
        self._make_node(problem.goal)
        for i in start.spaces:
            self.opens[i].insert_or_update(
                self.start_id, key_value(0.0, start.h, i, self.w1), 0.0
            )

    def _h(self, cell: Cell) -> float:
        return heuristic(cell, self._goal_cell, self._hkind)

    def _make_node(self, cell: Cell) -> _Node:
        sid = self.grid.flat_index(cell)
        node = self.nodes.get(sid)
        if node is None:
            node = _Node(
                math.inf, -1, self._h(cell), tuple(get_space_indices(cell, self.ladder))
            )
            self.nodes[sid] = node
            self.generated += 1
        return node

    def min_key(self, i: int) -> float:
        return self.opens[i].min_key()

    def expand_state(self, cell: Cell, i: int) -> None:
        """Relax all scale-i moves out of cell, updating the shared state
        table and every queue whose space contains an improved successor
        (unless that queue already closed it)."""
        sid = self.grid.flat_index(cell)
        node = self.nodes[sid]
        if node.closed & (1 << i):
            raise SearchCorruptionError(f"state {cell} expanded twice by queue {i}")
        self.expansions[i] += 1
        if self._log is not None:
            self._log.append((i, cell))
        g_s = node.g
        k = self.ladder.multipliers[i]
        for succ, cost in successors_at_scale(cell, k, self.grid):
            nd = self._make_node(succ)
            ng = g_s + cost
            if ng < nd.g:
                nd.g = ng
                nd.bp = sid
                sid2 = self.grid.flat_index(succ)
                for j in nd.spaces:
                    if not nd.closed & (1 << j):
                        self.opens[j].insert_or_update(
                            sid2, key_value(ng, nd.h, j, self.w1), ng
                        )

    def reconstruct_path(self) -> list[Cell]:
        """Follow backpointers from the goal to the start."""
        chain = []
        sid = self.goal_id
        limit = len(self.nodes) + 1
        while sid != self.start_id:
            chain.append(sid)
            node = self.nodes.get(sid)
            if node is None or node.bp < 0 or len(chain) > limit:
                raise SearchCorruptionError("broken backpointer chain at goal")
            sid = node.bp
        chain.append(self.start_id)
        chain.reverse()
        return [self.grid.cell_of(s) for s in chain]

    def run(self, log_expansions: bool = False, gate_probe=None) -> PlanResult:
        """Execute the search to completion, timeout or exhaustion.

        gate_probe, when given, is called with the anchor's current min
        key each iteration (used by tests to watch the gate).
        """
        self._log = [] if log_expansions else None
        started = time.monotonic()
        t0 = time.perf_counter()
        opens = self.opens
        goal_node = self.nodes[self.goal_id]
        total = 0
        is_dts = self.config.policy == "dts"
        while any(opens):
            if check_deadline(total, started, self.config.timeout):
                return self._result(STATUS_TIMEOUT, None, t0)
            nonempty = [i for i in range(1, self.n_queues) if opens[i]]
            i = self.policy.choose_queue(nonempty) if nonempty else 0
            mk0 = opens[0].min_key()
            if gate_probe is not None:
                gate_probe(mk0)
            mk_i = opens[i].min_key()
            if mk_i <= self.w2 * mk0:
                # mk_i can only be inf when w1 * h overflows; it claims nothing.
                if goal_node.g <= mk_i < math.inf:
                    return self._result(STATUS_SOLVED, i, t0)
                sid = opens[i].pop()
                self.expand_state(self.grid.cell_of(sid), i)
                self.nodes[sid].closed |= 1 << i
                if is_dts and i != 0:
                    top_h = (
                        self.nodes[opens[i].peek()].h if len(opens[i]) else math.inf
                    )
                    self.policy.update(i, top_h)
            else:
                if goal_node.g <= self.w2 * mk0:
                    return self._result(STATUS_SOLVED, 0, t0)
                sid = opens[0].pop()
                self.expand_state(self.grid.cell_of(sid), 0)
                self.nodes[sid].closed |= 1
            total += 1
        if goal_node.g < math.inf:
            # Defensive: queues drained in the same iteration the goal
            # became claimable.  Cost bound still holds.
            return self._result(STATUS_SOLVED, None, t0)
        return self._result(STATUS_EXHAUSTED, None, t0)

    def _result(self, status: str, winning_queue: int | None, t0: float) -> PlanResult:
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
            bound=self.w2 if solved else None,
            expansion_log=self._log,
        )


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
