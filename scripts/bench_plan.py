"""Time the plan pass, task by task, for one or more source trees.

    python3 scripts/bench_plan.py [TREE ...] [--rounds N] [--seed S] [--out FILE]

A TREE is a checkout with the package under src/mrastar; the default is
this repository.  As in scripts/bench_setup.py, each tree is imported
under its own module name, so that all of them run in one process.

The tasks are shaped like perfbench's workloads and are picked by the
program itself (the first tree): maps from synthetic.random_grid,
serialized, so that every tree parses the same text, and, on each map,
the first sampled pairs whose baselines.dijkstra_optimal cost lies in
the family's band.  plan3d: five 24^3 vox3 maps of density 0.25, 24
pairs each from gen_scenarios with optimal cost 13-15, one dts mra plan
per task (ladder 1,9,27).  bench2d: fifty 64-80 wide movingai maps of
density 0.30, 2 pairs each from bench.make_tasks with optimal cost
34-38, every bench algo per task, round robin (ladder 1,7,21).  Each
task has two cases: plan, its planner calls through bench.run_algo (a
refused call, wa-low off its sublattice, included), and oracle, one
dijkstra_optimal call.

Every tree runs every task once untimed, which fills the per-map caches
and records the task's results.  Then, in each of N rounds, the trees
take turns task by task, in an order that alternates from task to task
and from round to round, so that host drift reaches every tree alike.
A task whose results differ from its untimed run stops the run.

Each case reports, per tree, the median over tasks of each task's
minimum, first quartile, median and third quartile over the rounds,
and a digest of every deterministic PlanResult field (status, path,
cost, expansions, generated, winning_queue, bound) of every task, or of
the oracle's costs.  Against the first tree, a tree whose digest equals
the first tree's also gets, over the tasks, the ratio of its per-task
median to the first tree's (median and quartiles) and the number of
tasks it ran faster; with different digests there is no ratio.  The run
is appended to FILE (default BENCH_plan.json at the root of this
repository), with each tree's git commit and whether it had uncommitted
changes.
"""

import argparse
import gc
import importlib.util
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "bench_plan/1"


def _sibling(name: str):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_setup = _sibling("bench_setup")


class Family(NamedTuple):
    name: str
    dim: int
    sizes: tuple[int, int]  # each extent drawn uniformly from [lo, hi]
    density: float
    maps: int
    per_map: int  # tasks per map
    band: tuple[float, float]  # optimal cost of a task
    pool: int  # pairs sampled per map
    ladder: tuple[int, ...]
    sampler: str  # "program": gen_scenarios; "bench": bench.make_tasks
    algos: tuple[str, ...]
    policy: str


FAMILIES = (
    Family("plan3d", 3, (24, 24), 0.25, 5, 24, (13.0, 15.0), 2000, (1, 9, 27), "program",
           ("mra",), "dts"),
    Family("bench2d", 2, (64, 80), 0.30, 50, 2, (34.0, 38.0), 300, (1, 7, 21), "bench",
           bench_setup.BENCH_ALGOS, "round_robin"),
)
CASES = ("plan", "oracle")


class Task(NamedTuple):
    map_index: int
    start: tuple[int, ...]
    goal: tuple[int, ...]


def pick_tasks(m, family: Family, texts, seed: int) -> list[Task]:
    """The first family.per_map sampled pairs of each map whose optimal
    cost, by tree m's dijkstra_optimal, lies in family.band."""
    lo, hi = family.band
    parse = m.maps_io.parse_vox3 if family.dim == 3 else m.maps_io.parse_movingai_map
    tasks = []
    for idx, (map_id, text) in enumerate(texts):
        grid = parse(text)
        if family.sampler == "bench":
            pairs = [(t.start, t.goal)
                     for t in m.bench.make_tasks([(map_id, grid)], family.pool, seed + idx)]
        else:
            pairs = [(s.start, s.goal) for s in m.maps_io.gen_scenarios(grid, family.pool, seed + idx)]
        found = 0
        for start, goal in pairs:
            # the heuristic never exceeds the optimum: skip the search when it is above the band
            if m.grid.heuristic(start, goal) <= hi and lo <= m.baselines.dijkstra_optimal(grid, start, goal) <= hi:
                tasks.append(Task(idx, start, goal))
                found += 1
                if found == family.per_map:
                    break
    return tasks


def plan_fields(result) -> tuple:
    """Every deterministic field of a PlanResult, the cost as float.hex."""
    if result is None:
        return ("invalid",)
    return (result.status, result.path, float(result.cost).hex(), list(result.expansions),
            result.generated, result.winning_queue, result.bound)


class Runner:
    """One tree's maps and planner calls for one family."""

    def __init__(self, m, family: Family, texts, seed: int):
        parse = m.maps_io.parse_vox3 if family.dim == 3 else m.maps_io.parse_movingai_map
        self.m = m
        self.family = family
        self.grids = [parse(text) for _, text in texts]
        self.ladder = m.grid.ResolutionLadder(family.ladder)
        self.config = m.search.PlannerConfig(w1=3.0, w2=3.0, policy=family.policy, seed=seed)

    def plan(self, task: Task) -> list:
        m, grid = self.m, self.grids[task.map_index]
        out = []
        for algo in self.family.algos:
            try:
                out.append(m.bench.run_algo(algo, grid, task.start, task.goal, self.ladder, self.config))
            except m.InvalidProblemError:
                out.append(None)
        return out

    def oracle(self, task: Task) -> float:
        return self.m.baselines.dijkstra_optimal(self.grids[task.map_index], task.start, task.goal)

    def fields(self, case: str, task: Task):
        """(seconds, deterministic fields) of one call of case on task."""
        call = self.plan if case == "plan" else self.oracle
        t = time.perf_counter()
        out = call(task)
        seconds = time.perf_counter() - t
        if case == "plan":
            return seconds, [plan_fields(r) for r in out]
        return seconds, out.hex()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, each within the range of xs."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive")) if len(xs) > 1 else (xs[0],) * 3


def measure(trees: list[Path], families=FAMILIES, rounds: int = 15, seed: int = 1) -> dict:
    """One run: every family's cases for every tree, as a JSON record."""
    mods = [bench_setup.load_tree(root, f"_plan_tree{i}") for i, root in enumerate(trees)]
    results = []
    counts = {}
    for family in families:
        texts = bench_setup.map_texts(mods[0], family, seed)
        tasks = pick_tasks(mods[0], family, texts, seed)
        counts[family.name] = len(tasks)
        runners = [Runner(m, family, texts, seed) for m in mods]
        for case in CASES:
            want = [[r.fields(case, t)[1] for t in tasks] for r in runners]  # untimed, warms caches
            times = [[[] for _ in tasks] for _ in mods]  # per tree, per task: ms per round
            for rnd in range(rounds):
                gc.collect()
                for n, task in enumerate(tasks):
                    order = list(range(len(mods)))[::(-1) ** (rnd + n)]
                    for i in order:
                        seconds, got = runners[i].fields(case, task)
                        if got != want[i][n]:
                            raise RuntimeError(f"tree {i}: {family.name} task {n} did different work")
                        times[i][n].append(seconds * 1e3)
            digests = [bench_setup.digest(w) for w in want]
            medians = [[statistics.median(ts) for ts in times[i]] for i in range(len(mods))]
            for i in range(len(mods)):
                per_task = [(min(ts), *quartiles(ts)) for ts in times[i]]
                row = {
                    "family": family.name, "case": case, "tree": i, "digest": digests[i],
                    **{f"{stat}_ms": round(statistics.median(col), 4)
                       for stat, col in zip(("min", "q1", "median", "q3"), zip(*per_task))},
                }
                if i and digests[i] == digests[0]:
                    ratios = [a / b for a, b in zip(medians[i], medians[0])]
                    q1, med, q3 = quartiles(ratios)
                    row["ratio"] = {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}
                    row["wins"] = sum(a < b for a, b in zip(medians[i], medians[0]))
                elif i:
                    row["ratio"] = row["wins"] = None
                results.append(row)
    return {
        "trees": [bench_setup.git_state(root) for root in trees],
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cores": len(os.sched_getaffinity(0))},
        "rounds": rounds,
        "seed": seed,
        "families": [family._asdict() for family in families],
        "tasks": counts,
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_plan.json")
    args = parser.parse_args(argv)
    run = measure([t.resolve() for t in args.trees], rounds=args.rounds, seed=args.seed)
    bench_setup.append_run(args.out, run, SCHEMA)
    for r in run["results"]:
        line = (f"{r['family']:8s} {r['case']:6s} tree {r['tree']}: median {r['median_ms']:.4f} ms "
                f"[{r['q1_ms']:.4f}, {r['q3_ms']:.4f}], min {r['min_ms']:.4f}, digest {r['digest']}")
        if r.get("ratio"):
            line += (f"; ratio {r['ratio']['median']:.3f} [{r['ratio']['q1']:.3f}, "
                     f"{r['ratio']['q3']:.3f}], faster on {r['wins']}/{run['tasks'][r['family']]} tasks")
        elif r["tree"]:
            line += "; different work, no ratio"
        print(line)
    print(f"appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
