"""Grid maps, resolution ladders, move generation and costs.

A map discretizes the world at unit resolution; coarser action spaces
reuse the same cells but take moves of length k (an odd multiplier) per
axis.  A cell belongs to the k-space when it sits at the center of a
k x k block, i.e. every coordinate is congruent to (k-1)/2 modulo k.
A move of scale k is k unit king steps in one direction, and it is
valid iff every cell of the box each unit step spans is free: source,
destination and, for a diagonal, each flank (the box rule, see
kernels.move_free).

Planners read moves from a move table that each GridMap caches per
scale k, with one bit per direction per cell (see MoveTable), built
with vectorized numpy from the same rule.  The k = 1 table is
kernels.unit_moves, which the exact oracle (baselines.dijkstra_optimal)
searches too, with its own heuristic; see MoveTable for how it is
checked.  A coarse (k > 1) table is gathered from it and holds moves
only at the cells of its k-space; elsewhere it holds 0, which decodes
to no moves.  Each table also caches its masks decoded into (offset,
cost) pairs (MoveTable.moves), which every search loop, the planners'
and the oracle's, reads.  edge_valid and successors_at_scale check the
rule cell by cell instead, apart from the tables.

Two functions cost a path.  path_cost takes cells and checks every
step; it is the public cost that perfbench and the tests check each
answer with.  walk_chain reads a search's predecessor map back from the
goal once, checking nothing, and returns the chain's cells and their
cost; the planners and the oracle take their answers from it.  Both sum
the same integer scales per number of changed axes and end in the same
expression, so they agree bitwise.  heuristic is the planners' one
heuristic, and check_cell the one check of a cell against a map.
"""

import math
import numbers
from dataclasses import dataclass, field
from itertools import repeat
from operator import lt

import numpy as np

from . import kernels
from .errors import InvalidProblemError, SearchCorruptionError
from .kernels import SQRT2, SQRT3
from .kernels import STEP as _STEP
from .kernels import MASK_BITS, directions, mask_bits  # noqa: F401  (re-exported)

Cell = tuple[int, ...]

# _INT.issuperset(map(type, t)) holds iff every entry of t is a Python
# int (a bool is not): the fast path of as_cell and space_masks.
_INT = frozenset({int})


@dataclass(frozen=True)
class MoveTable:
    """Every valid move of one scale k on one map.

    masks[c] holds bit b set iff direction b is a valid length-k move
    from flat cell c; blocked cells hold 0.  For k > 1 only the cells of
    the k-sublattice (see coincides) hold moves and every other cell
    holds 0, which decodes to no moves: so wa_union's one queue reads
    each level's nonempty table at every state, and a state moves at exactly
    the scales whose sublattice holds it.  empty is True when every
    mask is 0 (say, no run of k free cells on the sublattice), decided
    once at build; search.FlatSearch leaves such a table out.  The
    k = 1 table, kernels.unit_moves of the map, holds the moves of every
    cell; the planners and the exact oracle, with its own heuristic,
    both search it.  tests/test_kernels.py, tests/test_move_tables.py and
    perfbench's scipy reference check it apart from its builder.
    Directions follow the kernels' order (dy, or dz, outermost, dx
    innermost, zero vector skipped), so decoding the bits upward yields
    successors_at_scale's order.  offsets[b] is the flat-index step of
    direction b and costs[b] its cost k * sqrt(axes changed).  masks is a memoryview
    over uint8 (2D, 8 directions) or uint32 (3D, 26 directions) values.

    moves maps a mask value to the (offset, cost) pairs of its set bits
    in that order, so every search relaxes a state's moves with
    `for off, cost in table.moves[table.masks[sid]]`.  It is filled on
    first read of each mask value (see kernels.DecodedMoves) and lives
    as long as the table, so every query, planner and oracle call that
    reads this scale on the map shares it: at most 256 entries in 2D,
    and in 3D at most one per distinct mask value read.
    """

    k: int
    masks: memoryview
    offsets: tuple[int, ...]
    costs: tuple[float, ...]
    moves: kernels.DecodedMoves = field(init=False, repr=False, compare=False)
    empty: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "moves", kernels.DecodedMoves(self.offsets, self.costs))
        object.__setattr__(self, "empty", not np.asarray(self.masks).any())


@dataclass(frozen=True, eq=False)
class GridMap:
    """Occupancy grid.  extents is (W, H) or (W, H, D); blocked is a
    boolean array shaped (H, W) or (D, H, W) with True for obstacles.

    The grid keeps its own read-only copy of blocked, so the move tables
    and masks it caches (move_table, space_masks) cannot go stale; the
    planners and the exact oracle, with its own heuristic, search the
    one move_table(1) (see MoveTable for its checks).  The cache is
    derived data: it is dropped when the grid is pickled or copied."""

    extents: tuple[int, ...]
    blocked: np.ndarray

    def __post_init__(self):
        ext = as_extents(self.extents)
        object.__setattr__(self, "extents", ext)
        shape = tuple(reversed(ext))
        arr = np.array(self.blocked, dtype=bool, order="C")
        if arr.shape != shape:
            raise ValueError(f"blocked shape {arr.shape} does not match extents {ext}")
        arr.flags.writeable = False
        object.__setattr__(self, "blocked", arr)
        object.__setattr__(self, "_cache", {})

    def __reduce__(self):
        return type(self), (self.extents, self.blocked)

    @classmethod
    def empty(cls, extents) -> "GridMap":
        ext = as_extents(extents)
        return cls(ext, np.zeros(tuple(reversed(ext)), dtype=bool))

    @property
    def dim(self) -> int:
        return len(self.extents)

    @property
    def size(self) -> int:
        return int(np.prod(self.extents))

    @property
    def flat_blocked(self) -> np.ndarray:
        return self.blocked.ravel()

    def in_bounds(self, cell: Cell) -> bool:
        """True iff cell has one coordinate per axis, each in range.
        Raises InvalidProblemError for what as_cell refuses (a
        non-integer coordinate, a non-sequence); a tuple of Python ints,
        the planners' case, is taken as is."""
        return self._holds(as_cell(cell))

    def is_free(self, cell: Cell) -> bool:
        """True iff cell is in bounds (see in_bounds) and not blocked."""
        cell = as_cell(cell)
        return self._holds(cell) and not self.blocked.item(cell[::-1])

    def _holds(self, cell: Cell) -> bool:
        """in_bounds of a tuple of Python ints, which as_cell gives."""
        ext = self.extents
        return len(cell) == len(ext) and min(cell) >= 0 and all(map(lt, cell, ext))

    def flat_index(self, cell: Cell) -> int:
        if self.dim == 2:
            return cell[1] * self.extents[0] + cell[0]
        w, h = self.extents[0], self.extents[1]
        return (cell[2] * h + cell[1]) * w + cell[0]

    def cell_of(self, flat: int) -> Cell:
        w = self.extents[0]
        if self.dim == 2:
            return (flat % w, flat // w)
        h = self.extents[1]
        return (flat % w, (flat // w) % h, flat // (w * h))

    def move_table(self, k: int) -> MoveTable:
        """The scale-k MoveTable of this map, built on first use and
        cached for every later query, planner and oracle call.  The
        cache is read first when k is a Python int, since only checked
        ones are cached; anything else (a float or a bool compares equal
        to an int key) is checked and converted first."""
        if type(k) is not int:
            k = check_multiplier(k)
        key = ("moves", k)
        table = self._cache.get(key)
        if table is None:
            k = check_multiplier(k)
            if k == 1:
                table = MoveTable(1, *kernels.unit_moves(self.blocked))
            else:
                table = _build_move_table(self, k, self.move_table(1))
            self._cache[key] = table
        return table

    def space_masks(self, multipliers: tuple[int, ...]):
        """Per flat cell, the bitmask of ladder spaces (bit i for level
        i, of multiplier multipliers[i]) whose sublattice holds the
        cell; cached per ladder.  Indexing the result yields ints.  The
        cache is read first when multipliers is a tuple of Python ints,
        as a ResolutionLadder holds them, since only checked ones are
        cached; anything else is checked, converted and then read."""
        if type(multipliers) is not tuple or not _INT.issuperset(map(type, multipliers)):
            multipliers = tuple(map(check_multiplier, multipliers))
        key = ("spaces", multipliers)
        masks = self._cache.get(key)
        if masks is None:
            masks = _build_space_masks(self, tuple(map(check_multiplier, multipliers)))
            self._cache[key] = masks
        return masks


def is_integer(x) -> bool:
    """True iff x is an int or a numpy integer, and not a bool: the one
    integer test for extents, coordinates, multipliers and seeds, so a
    float, even an integral one, or a string is refused rather than
    truncated."""
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


def check_int(name: str, x, least: int = 0) -> int:
    """x as a Python int: the one rule for every count, seed and repeat
    count.  Raises InvalidProblemError unless x is an integer (see
    is_integer) and >= least."""
    if not is_integer(x):
        raise InvalidProblemError(f"{name} must be an integer, got {x!r}")
    x = int(x)
    if x < least:
        raise InvalidProblemError(f"{name} must be >= {least}, got {x}")
    return x


def check_real(name: str, x):
    """x, unchanged: the one rule for every weight, timeout and density.
    Raises InvalidProblemError unless x is a real number (not a bool)."""
    # float first: the numbers.Real check alone costs about 1 us per value
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise InvalidProblemError(f"{name} must be a real number, got {x!r}")
    return x


def as_extents(extents) -> tuple[int, ...]:
    """extents as 2 or 3 positive Python ints (see is_integer); raises
    InvalidProblemError otherwise."""
    ext = tuple(extents)
    if not all(map(is_integer, ext)):
        raise InvalidProblemError(f"extents must be integers, got {ext!r}")
    ext = tuple(map(int, ext))
    if len(ext) not in (2, 3):
        raise InvalidProblemError(f"extents must have 2 or 3 entries, got {len(ext)}")
    if any(e < 1 for e in ext):
        raise InvalidProblemError(f"extents must be positive, got {ext}")
    return ext


def as_cell(cell, name: str = "cell") -> Cell:
    """cell as a tuple of Python ints.  Raises InvalidProblemError unless
    cell is a sequence of integers (see is_integer)."""
    if type(cell) is tuple and _INT.issuperset(map(type, cell)):
        return cell  # already a tuple of ints, the planners' case
    try:
        coords = tuple(cell)
    except TypeError:
        raise InvalidProblemError(f"{name} {cell!r} is not a sequence of coordinates") from None
    for c in coords:
        if not is_integer(c):
            raise InvalidProblemError(f"{name} {cell!r} has a non-integer coordinate {c!r}")
    return tuple(map(int, coords))


def check_cell(grid: GridMap, cell, name: str = "cell") -> Cell:
    """as_cell(cell, name), which must also be a cell of grid's
    dimension and in bounds; raises InvalidProblemError otherwise,
    naming the one reason."""
    cell = as_cell(cell, name)
    if len(cell) != grid.dim:
        raise InvalidProblemError(f"{name} {cell} is not a {grid.dim}D cell")
    if not grid._holds(cell):
        raise InvalidProblemError(f"{name} {cell} is out of bounds")
    return cell


def check_multiplier(k) -> int:
    """k as an int; raises InvalidProblemError unless it is an integer
    (see is_integer), odd and >= 1, the rule for every action scale
    (ladder level or single-scale planner)."""
    if not is_integer(k):
        raise InvalidProblemError(f"multipliers must be integers, got {k!r}")
    k = int(k)
    if k < 1 or k % 2 == 0:
        raise InvalidProblemError(f"multipliers must be odd and >= 1, got {k}")
    return k


@dataclass(frozen=True)
class ResolutionLadder:
    """Odd per-axis multipliers, strictly increasing, first entry 1 (the
    anchor space).  No nesting is assumed between the coarser levels."""

    multipliers: tuple[int, ...]

    def __post_init__(self):
        try:
            mults = tuple(map(check_multiplier, self.multipliers))
        except TypeError:
            raise InvalidProblemError(
                f"ladder {self.multipliers!r} is not a sequence of multipliers"
            ) from None
        object.__setattr__(self, "multipliers", mults)
        if not mults:
            raise InvalidProblemError("ladder must have at least one multiplier")
        if mults[0] != 1:
            raise InvalidProblemError(f"first multiplier must be 1, got {mults[0]}")
        if any(b <= a for a, b in zip(mults, mults[1:])):
            raise InvalidProblemError(
                f"multipliers must be strictly increasing, got {mults}"
            )

    def __len__(self) -> int:
        return len(self.multipliers)

    def __getitem__(self, i: int) -> int:
        return self.multipliers[i]


def coincides(cell: Cell, k: int) -> bool:
    """True iff cell lies on the k-space sublattice (center of a k-block)."""
    half = (k - 1) // 2
    return all(c % k == half for c in cell)


def get_space_indices(cell: Cell, ladder: ResolutionLadder) -> list[int]:
    """Indices of every ladder space whose sublattice contains cell.
    Index 0 is always present: the anchor space covers all cells."""
    return [i for i, k in enumerate(ladder.multipliers) if coincides(cell, k)]


def edge_valid(a: Cell, b: Cell, grid: GridMap) -> bool:
    """True iff the lattice move a->b (see edge_decomposition) only
    touches free cells under the box rule.  Symmetric in its endpoints.
    Raises InvalidProblemError unless a and b are in-bounds cells of the
    map and a->b is a lattice move."""
    a, b = check_cell(grid, a, "edge endpoint"), check_cell(grid, b, "edge endpoint")
    try:
        k, _ = edge_decomposition(a, b)
    except ValueError as exc:
        raise InvalidProblemError(str(exc)) from None
    step = tuple((cb > ca) - (cb < ca) for ca, cb in zip(a, b))
    return kernels.move_free(grid.flat_blocked, grid.extents, a, step, k)


def _sublattice(k: int, dim: int) -> tuple[slice, ...]:
    """The index of the k-sublattice's cells (see coincides) in an array
    shaped like GridMap.blocked."""
    return (slice((k - 1) // 2, None, k),) * dim


def _build_move_table(grid: GridMap, k: int, unit: MoveTable) -> MoveTable:
    """The scale-k table (k > 1) from unit, the k = 1 table.  King moves
    of length k run along the line of k unit moves, so a length-k move
    is valid iff those k unit moves all are; its offset and cost are k
    times the unit move's.  Only the cells of the k-sublattice get moves
    and every other cell holds 0 (see MoveTable).  A direction that
    steps along an axis no longer than k leaves the map from every cell,
    so its bit stays 0 without any array work."""
    dtype = np.uint8 if grid.dim == 2 else np.uint32
    shape = grid.blocked.shape
    live = [
        b for b, vec in enumerate(directions(grid.dim))
        if not any(v and n <= k for v, n in zip(vec, grid.extents))
    ]
    masks = np.zeros(shape, dtype)
    if live:
        on = _sublattice(k, grid.dim)
        cells = np.arange(grid.size).reshape(shape)[on]
        units = np.array([unit.offsets[b] for b in live])
        # reads[j, t, c]: the unit masks t unit steps along direction
        # live[j] from sublattice cell c.  A read past a row edge (wrapped)
        # or past the array (clipped) comes after the first unit move that
        # leaves the map, whose bit is already 0, so it never decides a bit.
        reads = np.frombuffer(unit.masks, dtype).take(
            cells.ravel() + np.arange(k)[:, None] * units[:, None, None], mode="clip"
        )
        bits = np.array([1 << b for b in live], dtype)[:, None]
        runs = np.bitwise_and.reduce(reads, axis=1) & bits
        masks[on] = np.bitwise_or.reduce(runs, axis=0).reshape(cells.shape)
    offsets = tuple(k * o for o in unit.offsets)
    costs = tuple(k * c for c in unit.costs)
    return MoveTable(k, memoryview(masks.ravel()), offsets, costs)


def _build_space_masks(grid: GridMap, multipliers: tuple[int, ...]):
    n = len(multipliers)
    dtype = next((t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                  if n <= 8 * np.dtype(t).itemsize), object)
    masks = np.zeros(grid.blocked.shape, dtype)
    for i, k in enumerate(multipliers):
        masks[_sublattice(k, grid.dim)] |= 1 << i
    flat = masks.ravel()
    return flat.tolist() if dtype is object else memoryview(flat)


def successors_at_scale(cell: Cell, k: int, grid: GridMap) -> list[tuple[Cell, float]]:
    """Valid moves of scale k from cell, as (successor, cost) pairs in
    directions' order, by the box rule cell by cell (no move table).
    Raises InvalidProblemError unless cell is an in-bounds cell of the
    map and k an odd multiplier >= 1."""
    cell, k = check_cell(grid, cell), check_multiplier(k)
    run = kernels.successors_2d if grid.dim == 2 else kernels.successors_3d
    moves = run(grid.flat_blocked, *grid.extents, *cell, k)
    return [(grid.cell_of(v), k * _STEP[m]) for v, m in moves]


def heuristic(a: Cell, b: Cell) -> float:
    """The planners' admissible distance estimate between cells.  2D:
    the octile distance sqrt(2)*min(|dx|,|dy|) + ||dx|-|dy||, the exact
    free-space distance under 8-connected unit moves.  3D: the
    straight-line (euclidean) distance.  search.FlatSearch keys its
    start with it and computes every other h inline by the same
    expressions.  Raises InvalidProblemError when a and b differ in
    dimension.
    """
    if len(a) != len(b):
        raise InvalidProblemError(f"cells {a} and {b} differ in dimension")
    if len(a) == 2:
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        lo = dx if dx < dy else dy
        hi = dx + dy - lo
        return lo * SQRT2 + (hi - lo)
    return math.hypot(*(ca - cb for ca, cb in zip(a, b)))


def edge_decomposition(a: Cell, b: Cell) -> tuple[int, int]:
    """(scale, changed-axis count) of the lattice move a->b.

    Every legal move changes some subset of axes by the same magnitude k;
    raises if a->b is not of that form.
    """
    # k: the largest step; m: the axes changed by k; nz: the axes changed
    k = m = nz = 0
    for ca, cb in zip(a, b):
        d = abs(ca - cb)
        if d != 0:
            nz += 1
            if d > k:
                k, m = d, 1
            elif d == k:
                m += 1
    if len(a) != len(b) or not nz:
        raise ValueError(f"{a}->{b} is not a lattice move")
    if m != nz:
        nonzero = [d for d in (abs(ca - cb) for ca, cb in zip(a, b)) if d != 0]
        raise ValueError(f"{a}->{b} mixes step magnitudes {sorted(set(nonzero))}")
    return k, m


def path_cost(path: list[Cell]) -> float:
    """Total cost of a move sequence; raises ValueError on a step that is
    not a lattice move (see edge_decomposition).

    Each edge costs k*sqrt(m) for m changed axes, so the sum decomposes
    into integer multiples of 1, sqrt(2) and sqrt(3).  Accumulating the
    integer parts first makes the float result independent of edge order,
    so equal-cost paths produce bitwise-equal totals.  The public,
    validating cost of a cell path; the searches cost their chains with
    walk_chain, the same float (see the module docstring).
    """
    a1 = a2 = a3 = 0
    for u, v in zip(path, path[1:]):
        k, m = edge_decomposition(u, v)
        if m == 1:
            a1 += k
        elif m == 2:
            a2 += k
        else:
            a3 += k
    return _lattice_total(a1, a2, a3)


def walk_chain(grid: GridMap, bp, start: int, goal: int) -> tuple[list[Cell], float]:
    """The cells of a search's predecessor chain from flat id start to
    flat id goal, and their path_cost, in one walk back from goal: bp[v]
    is v's predecessor (a dict, or a sequence indexed by flat id).  Each
    step adds its scale, read from the coordinate deltas with the cell
    before it, to the sum of the moves that change as many axes, so the
    cost is the same float as path_cost(cells).  Every step must be a
    lattice move (a search's chain is); it is not checked.  Raises
    SearchCorruptionError when the walk leaves bp or takes more steps
    than bp has entries (a cycle) before it reaches start."""
    w = grid.extents[0]
    sid = goal
    try:
        if grid.dim == 2:
            a1 = a2 = 0
            x, y = sid % w, sid // w
            cells = [(x, y)]
            for _ in repeat(None, len(bp)):
                if sid == start:
                    break
                sid = bp[sid]
                px, py = sid % w, sid // w
                dx, dy = abs(px - x), abs(py - y)
                if dx and dy:
                    a2 += dx
                else:
                    a1 += dx or dy
                cells.append((px, py))
                x, y = px, py
            per_axes = (a1, a2, 0)
        else:
            wh = w * grid.extents[1]
            counts = [0, 0, 0, 0]
            x, y, z = sid % w, sid % wh // w, sid // wh
            cells = [(x, y, z)]
            for _ in repeat(None, len(bp)):
                if sid == start:
                    break
                sid = bp[sid]
                px, py, pz = sid % w, sid % wh // w, sid // wh
                dx, dy, dz = abs(px - x), abs(py - y), abs(pz - z)
                counts[(dx > 0) + (dy > 0) + (dz > 0)] += dx or dy or dz
                cells.append((px, py, pz))
                x, y, z = px, py, pz
            per_axes = counts[1:]
    except (KeyError, IndexError):
        sid = -1
    if sid != start:
        raise SearchCorruptionError("broken backpointer chain at goal")
    cells.reverse()
    return cells, _lattice_total(*per_axes)


def _lattice_total(a1: int, a2: int, a3: int) -> float:
    """The cost of moves whose scales sum to a1 over the moves changing
    one axis, a2 over those changing two and a3 over those changing
    three."""
    return (float(a1) + a2 * SQRT2) + a3 * SQRT3


def fine_components(grid: GridMap) -> np.ndarray:
    """Connected-component labels of the free cells under unit moves,
    shaped like grid.blocked; -1 marks blocked cells."""
    run = kernels.component_labels_2d if grid.dim == 2 else kernels.component_labels_3d
    return run(grid.flat_blocked, *grid.extents).reshape(grid.blocked.shape)
