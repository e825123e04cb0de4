"""Seeded inputs for the benchmark workloads.

Every workload is built from the run's seed alone: maps are drawn with
numpy and serialised to MovingAI or vox3 text here, so the program under
test only ever receives map text and query endpoints.  Nothing in this
module calls the planner.  The references the checks use are built
here from scipy alone: connected components (4-connectivity in 2D and
6-connectivity in 3D equal unit-lattice connectivity under the corner
rule) and optimal path costs.
"""

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

ALGOS = ("mra", "wa-high", "wa-low", "wa-mr", "astar")
W = 3.0  # w1 = w2 on every workload


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape.

    sampler "program" draws `pool` pairs per map with the program's
    gen_scenarios and keeps the first `queries` whose optimal cost (from
    the reference, see choose_pairs) is in `band`; "bench" does the same
    through bench.make_tasks and runs every algo on each pair.  The
    optimal cost predicts a query's work far better than the obstacle-free
    distance does, so the band keeps a run's total work alike across seeds.

    The oracle is timed on the `oracle_sample` tasks whose reference
    Dijkstra settles nearest `oracle_target` cells before the goal, so
    its work per call is alike from seed to seed.  It answers every task
    of the bench sampler and that sample elsewhere.

    Each map is set up once before the timed phase; after every round
    the next `resetups` maps, in turn, are set up again, so that the
    set-ups meet the host at different times of the run.
    """

    name: str
    dim: int
    sizes: tuple[int, int]  # each extent drawn uniformly from [lo, hi]
    density: float
    maps: int
    queries: int  # per map
    ladder: tuple[int, ...]
    policy: str
    sampler: str
    band: tuple[float, float]
    pool: int
    oracle_sample: int
    oracle_target: int  # cells
    resetups: int  # per round

    @property
    def algos(self) -> tuple[str, ...]:
        return ALGOS if self.sampler == "bench" else ("mra",)

    @property
    def check_all(self) -> bool:
        return self.sampler == "bench"


# Sizes are set so that a round (a pass, an oracle round and the
# re-set-ups) takes 2.5-6 s on one core: a 45 s run then times every
# call 7-18 times.
SPECS = {
    s.name: s
    for s in (
        Spec("plan3d", 3, (24, 24), 0.25, maps=5, queries=24,
             ladder=(1, 9, 27), policy="dts", sampler="program",
             band=(13.0, 15.0), pool=2000, oracle_sample=6, oracle_target=2000,
             resetups=1),
        Spec("bench2d", 2, (64, 80), 0.30, maps=50, queries=2,
             ladder=(1, 7, 21), policy="round_robin", sampler="bench",
             band=(34.0, 38.0), pool=300, oracle_sample=12, oracle_target=1100,
             resetups=3),
    )
}


@dataclass
class MapInput:
    map_id: str
    fmt: str  # "movingai" or "vox3"
    text: str
    seed: int  # scenario seed handed to the program
    blocked: np.ndarray  # the generator's own copy, for reference checks


def rng_for(name: str, seed: int, stream: int = 0) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag, stream])


def movingai_text(blocked: np.ndarray) -> str:
    h, w = blocked.shape
    rows = ["".join(r) for r in np.where(blocked, "@", ".")]
    return "\n".join(["type octile", f"height {h}", f"width {w}", "map", *rows]) + "\n"


def vox3_text(blocked: np.ndarray) -> str:
    d, h, w = blocked.shape
    slices = ["\n".join("".join(r) for r in np.where(sl, "#", ".")) for sl in blocked]
    return f"vox3 {w} {h} {d}\n" + "\n\n".join(slices) + "\n"


def make_maps(spec: Spec, seed: int) -> list[MapInput]:
    rng = rng_for(spec.name, seed)
    out = []
    for i in range(spec.maps):
        lo, hi = spec.sizes
        ext = [int(rng.integers(lo, hi + 1)) for _ in range(spec.dim)]
        blocked = rng.random(tuple(reversed(ext))) < spec.density
        text = movingai_text(blocked) if spec.dim == 2 else vox3_text(blocked)
        out.append(MapInput(
            f"{spec.name}-{i:03d}", "movingai" if spec.dim == 2 else "vox3",
            text, int(rng.integers(0, 2**31)), blocked,
        ))
    return out


def reference_labels(blocked: np.ndarray) -> np.ndarray:
    """Face-connected components of the free cells; 0 marks blocked."""
    labels, _ = ndimage.label(~blocked)
    return labels


def reference_graph(blocked: np.ndarray):
    """The unit lattice of a 2D (y, x) or 3D (z, y, x) occupancy array
    as a scipy sparse graph, built here from the rule the program states:
    a move of one cell along 1, 2 or 3 axes costs sqrt(axes) and is valid
    when every cell of the box it spans is free (its segment touches all
    of them through an edge or a corner).  Node ids are flat indices."""
    from scipy.sparse import csr_matrix  # imported here, in run.py's child process only

    free = ~blocked
    idx = np.arange(free.size, dtype=np.int32).reshape(free.shape)
    src, dst, cost = [], [], []
    for d in itertools.product((-1, 0, 1), repeat=free.ndim):
        if next((c for c in d if c), 0) != 1:
            continue  # each undirected move once
        lo = tuple(slice(0, n - 1) if c == 1 else slice(1, n) if c == -1 else slice(None)
                   for c, n in zip(d, free.shape))
        hi = tuple(slice(1, n) if c == 1 else slice(0, n - 1) if c == -1 else slice(None)
                   for c, n in zip(d, free.shape))
        ok = np.ones(free[lo].shape, bool)
        for corner in itertools.product(*[(0, 1) if c else (0,) for c in d]):
            ok &= free[tuple(h if b else l for b, l, h in zip(corner, lo, hi))]
        src.append(idx[lo][ok])
        dst.append(idx[hi][ok])
        cost.append(np.full(int(ok.sum()), math.sqrt(sum(map(abs, d)))))
    src, dst, cost = np.concatenate(src), np.concatenate(dst), np.concatenate(cost)
    return csr_matrix((np.concatenate([cost, cost]),
                       (np.concatenate([src, dst]), np.concatenate([dst, src]))),
                      shape=(free.size, free.size))


def reference_costs(blocked: np.ndarray, pairs, limit: float = np.inf):
    """Per (start, goal) pair of (x, y[, z]) cells, lazily: the optimal
    unit-lattice cost from scipy's Dijkstra (inf where no path exists or
    the cost exceeds `limit`), and the number of cells strictly nearer the
    start than the goal is, which is the work a Dijkstra that stops at the
    goal must do."""
    from scipy.sparse.csgraph import dijkstra

    graph = reference_graph(blocked)
    flat = lambda cell: int(np.ravel_multi_index(tuple(reversed(cell)), blocked.shape))
    for start, goal in pairs:
        field = dijkstra(graph, indices=flat(start), limit=limit)
        cost = float(field[flat(goal)])
        yield cost, int(np.count_nonzero(field < cost))


def choose_pairs(blocked: np.ndarray, candidates, band, count: int):
    """The first `count` candidates whose optimal cost is in `band`, each
    as ((start, goal), (cost, work)); fewer when the candidates run out."""
    near = [p for p in candidates if distance(*p) <= band[1]]  # distance <= cost
    out = []
    for pair, (cost, work) in zip(near, reference_costs(blocked, near, band[1])):
        if band[0] <= cost <= band[1]:
            out.append((pair, (cost, work)))
            if len(out) == count:
                break
    return out


def distance(a, b) -> float:
    """Obstacle-free distance: octile in 2D, euclidean in 3D."""
    if len(a) == 2:
        dx, dy = abs(a[0] - b[0]), abs(a[1] - b[1])
        return min(dx, dy) * 2**0.5 + abs(dx - dy)
    return sum((p - q) ** 2 for p, q in zip(a, b)) ** 0.5
