"""A/B timer of a map's set-up layers, the plan pass and the oracle, for
one or more source trees.

    python3 scripts/bench_plan.py [TREE ...] [--rounds N] [--seed S] [--out FILE]

A TREE is a checkout with the package under src/mrastar; the default is
this repository.  Each tree is imported under its own module name, so
that all of them run in one process.

The maps are made by the first tree's synthetic module and serializers,
so every tree parses the same text.  Two families are shaped like
perfbench's workloads.  plan3d: 24^3 vox3 maps of density 0.25, 2000
pairs sampled per map by gen_scenarios, one dts mra plan per query
(ladder 1,9,27); the tasks lie on the first five maps, and the set-up
cases run on those and 20 more.  bench2d: fifty 64-80 wide movingai maps
of density 0.30, 300 pairs per map by bench.make_tasks, every bench algo
per query, round robin (ladder 1,7,21).  The tasks are, on each map, the
first 24 (plan3d) or 2 (bench2d) sampled pairs whose
baselines.dijkstra_optimal cost, by the first tree, lies in 13-15
(plan3d) or 34-38 (bench2d).  The third, culdesac, is the one family on
which MRA*'s coarse queues and gate are on the hot path: twenty 96^2
synthetic.cul_de_sac_instance maps, each with one task, the instance's
own endpoints, planned by round-robin mra (ladder 1,7,21) at w1 = 5,
w2 = 3, where the gate blocks most coarse picks.  Each family sets its
planners' w1 and w2 (3 and 3 unless stated).

The cases, per map, from its text, so that nothing is cached:
- parse: parse_vox3 or parse_movingai_map;
- labels: maps_io.fine_components;
- scenarios: the map's sampled pairs, which label the map again;
- move_table k=K: GridMap.move_table(K) for each scale, smallest first,
  so that k = 1 is the unit-move builder and each coarse table reads it;
- space_masks: GridMap.space_masks(ladder);
- first_query: the planner calls on the first sampled pair;
- setup: the sum of every layer but labels, the work of perfbench's
  setup_s.
And per task, on maps parsed once: plan, its planner calls through
bench.run_algo (a refused call, wa-low off its sublattice, included),
and oracle, one dijkstra_optimal call.

Every tree runs every item (a map or a task) once untimed, which records
its work and fills the per-map caches of the plan and oracle cases.
Then, in each of N rounds, after one gc.collect, the trees take turns
item by item, in an order that alternates from item to item and from
round to round, so that host drift reaches every tree alike.  An item
whose work differs from its untimed run stops the run.

Each case reports, per tree, the median over items of each item's
minimum, first quartile, median and third quartile over the rounds, and
a digest of its deterministic work: per map, the layer's work record
(cells, components, scenarios, digests of the tables, the masks and the
first query's results), which the set-up rows also list; per task, every
PlanResult field (status, path, cost, expansions, generated,
winning_queue, bound) or the oracle's cost.  A tree whose digest equals
the first tree's also gets, over the items, the ratio of its per-item
median to the first tree's (median and quartiles) and the number of
items it ran faster; with different digests there is no ratio.  The run
is appended to FILE (default BENCH_plan.json at the root of this
repository), with each tree's git commit and whether its src/, the code
it times, had uncommitted changes or untracked files.  N must be at
least 1: nothing is run or written otherwise.
"""

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "bench_plan/1"
BENCH_ALGOS = ("mra", "wa-high", "wa-low", "wa-mr", "astar")


class Family(NamedTuple):
    name: str
    dim: int
    sizes: tuple[int, int]  # each extent drawn uniformly from [lo, hi]
    density: float
    maps: int
    per_map: int  # tasks per map
    band: tuple[float, float]  # optimal cost of a task
    pool: int  # pairs sampled per map, by the scenarios case and by pick_tasks
    ladder: tuple[int, ...]
    # "program": gen_scenarios; "bench": bench.make_tasks; "culdesac": each map is a
    # synthetic.cul_de_sac_instance, which sets its own size and blocks, and its one
    # pair is the instance's endpoints
    sampler: str
    algos: tuple[str, ...]
    policy: str
    w1: float = 3.0
    w2: float = 3.0
    extra_setup_maps: int = 0  # maps made after the task maps, for the set-up cases alone


FAMILIES = (
    Family("plan3d", 3, (24, 24), 0.25, 5, 24, (13.0, 15.0), 2000, (1, 9, 27), "program",
           ("mra",), "dts", extra_setup_maps=20),
    Family("bench2d", 2, (64, 80), 0.30, 50, 2, (34.0, 38.0), 300, (1, 7, 21), "bench",
           BENCH_ALGOS, "round_robin"),
    Family("culdesac", 2, (96, 96), 0.0, 20, 1, (84.0, 130.0), 1, (1, 7, 21), "culdesac",
           ("mra",), "round_robin", w1=5.0, w2=3.0),
)


class Task(NamedTuple):
    map_index: int
    start: tuple[int, ...]
    goal: tuple[int, ...]


def load_tree(root: Path, name: str):
    """The package under root/src/mrastar, imported as `name`, afresh
    when a package of that name was imported before."""
    for loaded in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[loaded]
    pkg = root / "src" / "mrastar"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("baselines", "bench", "grid", "maps_io", "search", "synthetic"):
        importlib.import_module(f"{name}.{sub}")
    return module


def git_state(root: Path) -> dict:
    def git(*args):
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=all", "--", "src")
    return {"commit": commit, "dirty": None if commit is None else bool(status)}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(bytes(p) if isinstance(p, memoryview) else repr(p).encode())
    return h.hexdigest()[:16]


def map_texts(m, family: Family, seed: int) -> list[tuple[str, str, tuple | None]]:
    """(map id, text, the instance's (start, goal) or None) per map of
    family, task maps first, drawn from seed with tree m."""
    rng = np.random.default_rng([seed, family.dim])
    serialize = m.maps_io.serialize_vox3 if family.dim == 3 else m.maps_io.serialize_movingai
    out = []
    for i in range(family.maps + family.extra_setup_maps):
        if family.sampler == "culdesac":
            grid, start, goal = m.synthetic.cul_de_sac_instance(int(rng.integers(1 << 30)))
            ends = (start, goal)
        else:
            extents = tuple(int(rng.integers(family.sizes[0], family.sizes[1] + 1))
                            for _ in range(family.dim))
            grid = m.synthetic.random_grid(extents, family.density, int(rng.integers(1 << 30)))
            ends = None
        out.append((f"{family.name}-{i}", serialize(grid), ends))
    return out


def plan_fields(result) -> tuple:
    """Every deterministic field of a PlanResult, the cost as float.hex."""
    if result is None:
        return ("invalid",)
    return (result.status, result.path, float(result.cost).hex(), list(result.expansions),
            result.generated, result.winning_queue, result.bound)


class Runner:
    """One tree's maps and planner calls for one family."""

    def __init__(self, m, family: Family, texts, seed: int):
        self.m = m
        self.family = family
        self.texts = texts
        self.seed = seed
        self.parse = m.maps_io.parse_vox3 if family.dim == 3 else m.maps_io.parse_movingai_map
        self.grids = [self.parse(text) for _, text, _ in texts]
        self.ladder = m.grid.ResolutionLadder(family.ladder)
        self.config = m.search.PlannerConfig(w1=family.w1, w2=family.w2, policy=family.policy,
                                             seed=seed)

    def pairs(self, grid, idx: int) -> list:
        """The family.pool (start, goal) pairs sampled on map idx, or a
        cul-de-sac's own pair."""
        m, family, seed = self.m, self.family, self.seed + idx
        if family.sampler == "culdesac":
            return [self.texts[idx][2]]
        if family.sampler == "bench":
            tasks = m.bench.make_tasks([(self.texts[idx][0], grid)], family.pool, seed)
            return [(t.start, t.goal) for t in tasks]
        return [(s.start, s.goal) for s in m.maps_io.gen_scenarios(grid, family.pool, seed)]

    def queries(self, grid, start, goal) -> list:
        """Every family algo's PlanResult on one query, None where refused."""
        out = []
        for algo in self.family.algos:
            try:
                out.append(self.m.bench.run_algo(algo, grid, start, goal, self.ladder, self.config))
            except self.m.InvalidProblemError:
                out.append(None)
        return out

    def plan(self, task: Task) -> list:
        return self.queries(self.grids[task.map_index], task.start, task.goal)

    def oracle(self, task: Task) -> float:
        return self.m.baselines.dijkstra_optimal(self.grids[task.map_index], task.start, task.goal)

    def setup(self, idx: int) -> tuple[dict, dict]:
        """Map idx's set-up from its text, layer by layer: (seconds, work)."""
        times, work = {}, {}

        def timed(case, call, *args):
            t = time.perf_counter()
            out = call(*args)
            times[case] = time.perf_counter() - t
            return out

        grid = timed("parse", self.parse, self.texts[idx][1])
        work["parse"] = {"cells": grid.size, "blocked": int(grid.blocked.sum())}
        labels = timed("labels", self.m.maps_io.fine_components, grid)
        work["labels"] = {"components": int(labels.max()) + 1}
        pairs = timed("scenarios", self.pairs, grid, idx)
        work["scenarios"] = {"count": len(pairs), "digest": digest(pairs)}
        for k in sorted(self.family.ladder):
            table = timed(f"move_table k={k}", grid.move_table, k)
            work[f"move_table k={k}"] = {
                "digest": digest(table.masks, table.offsets, [c.hex() for c in table.costs])
            }
        work["space_masks"] = {"digest": digest(timed("space_masks", grid.space_masks, self.family.ladder))}
        results = timed("first_query", self.queries, grid, *pairs[0])
        work["first_query"] = {
            "expansions": sum(sum(r.expansions) for r in results if r is not None),
            "digest": digest([plan_fields(r) for r in results]),
        }
        times["setup"] = sum(s for case, s in times.items() if case != "labels")
        return times, work

    def run(self, stage: str, item) -> tuple[dict, dict]:
        """(seconds, work) per case of one call of stage on item: the
        set-up layers of a map index, or the plan or oracle of a task."""
        if stage == "setup":
            return self.setup(item)
        call = self.plan if stage == "plan" else self.oracle
        t = time.perf_counter()
        out = call(item)
        seconds = time.perf_counter() - t
        return {stage: seconds}, {stage: [plan_fields(r) for r in out] if stage == "plan" else out.hex()}


def pick_tasks(runner: Runner) -> list[Task]:
    """The first family.per_map sampled pairs of each map whose optimal
    cost, by the runner's dijkstra_optimal, lies in family.band."""
    m, family = runner.m, runner.family
    lo, hi = family.band
    tasks = []
    for idx, grid in enumerate(runner.grids[:family.maps]):
        found = 0
        for start, goal in runner.pairs(grid, idx):
            # the heuristic never exceeds the optimum: skip the search when it is above the band
            if m.grid.heuristic(start, goal) <= hi and lo <= m.baselines.dijkstra_optimal(grid, start, goal) <= hi:
                tasks.append(Task(idx, start, goal))
                found += 1
                if found == family.per_map:
                    break
    return tasks


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, each within the range of xs."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else (xs[0],) * 3


def measure(trees: list[Path], families=FAMILIES, rounds: int = 15, seed: int = 1) -> dict:
    """One run: every family's cases for every tree, as a JSON record."""
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    mods = [load_tree(root, f"_bench_tree{i}") for i, root in enumerate(trees)]
    results = []
    counts = {}
    for family in families:
        texts = map_texts(mods[0], family, seed)
        runners = [Runner(m, family, texts, seed) for m in mods]
        tasks = pick_tasks(runners[0])
        counts[family.name] = len(tasks)
        for stage, items in (("setup", range(len(texts))), ("plan", tasks), ("oracle", tasks)):
            want = [[r.run(stage, item)[1] for item in items] for r in runners]  # untimed
            times = [[{} for _ in items] for _ in mods]  # per tree, per item: ms per round, per case
            for rnd in range(rounds):
                gc.collect()
                for n, item in enumerate(items):
                    for i in list(range(len(mods)))[::(-1) ** (rnd + n)]:
                        seconds, got = runners[i].run(stage, item)
                        if got != want[i][n]:
                            raise RuntimeError(f"tree {i}: {family.name} {stage} item {n} did different work")
                        for case, s in seconds.items():
                            times[i][n].setdefault(case, []).append(s * 1e3)
            for case in times[0][0]:
                works = [[w.get(case) for w in want[i]] for i in range(len(mods))]
                # setup, a sum, has no work of its own: its digest covers every layer's
                digests = [digest(want[i] if case == "setup" else works[i]) for i in range(len(mods))]
                medians = [[statistics.median(t[case]) for t in times[i]] for i in range(len(mods))]
                for i in range(len(mods)):
                    per_item = [(min(t[case]), *quartiles(t[case])) for t in times[i]]
                    row = {
                        "family": family.name, "case": case, "tree": i, "digest": digests[i],
                        **{f"{stat}_ms": round(statistics.median(col), 4)
                           for stat, col in zip(("min", "q1", "median", "q3"), zip(*per_item))},
                    }
                    if stage == "setup":
                        row["work"] = None if case == "setup" else works[i]
                    if i and digests[i] == digests[0]:
                        ratios = [a / b for a, b in zip(medians[i], medians[0])]
                        q1, med, q3 = quartiles(ratios)
                        row["ratio"] = {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}
                        row["wins"] = sum(a < b for a, b in zip(medians[i], medians[0]))
                    elif i:
                        row["ratio"] = row["wins"] = None
                    results.append(row)
    return {
        "trees": [git_state(root) for root in trees],
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cores": len(os.sched_getaffinity(0))},
        "rounds": rounds,
        "seed": seed,
        "families": [family._asdict() for family in families],
        "tasks": counts,
        "results": results,
    }


def append_run(path: Path, run: dict) -> None:
    doc = {"schema": SCHEMA, "runs": []}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("schema") != SCHEMA:
            raise SystemExit(f"{path}: schema is not {SCHEMA}")
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_plan.json")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be at least 1, got {args.rounds}")
    run = measure([t.resolve() for t in args.trees], rounds=args.rounds, seed=args.seed)
    append_run(args.out, run)
    items = {f["name"]: f["maps"] + f["extra_setup_maps"] for f in run["families"]}
    for r in run["results"]:
        line = (f"{r['family']:8s} {r['case']:16s} tree {r['tree']}: median {r['median_ms']:.4f} ms "
                f"[{r['q1_ms']:.4f}, {r['q3_ms']:.4f}], min {r['min_ms']:.4f}, digest {r['digest']}")
        if r.get("ratio"):
            n = run["tasks"][r["family"]] if r["case"] in ("plan", "oracle") else items[r["family"]]
            line += (f"; ratio {r['ratio']['median']:.3f} [{r['ratio']['q1']:.3f}, "
                     f"{r['ratio']['q3']:.3f}], faster on {r['wins']}/{n}")
        elif r["tree"]:
            line += "; different work, no ratio"
        print(line)
    print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
