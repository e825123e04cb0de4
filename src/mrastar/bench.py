"""Benchmark harness: run planners over scenario sets, aggregate, sweep,
and write the results, summary and sweep CSV files.

Used by the CLI and the acceptance tests alike.  Rows are deterministic
for fixed seeds except for their timing fields.
"""

import csv
import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

from .baselines import wa_union, weighted_astar
from .errors import InvalidProblemError
from .grid import Cell, GridMap, ResolutionLadder, check_int, check_real
from .maps_io import gen_scenarios
from .search import PlannerConfig, PlanResult, Problem, plan


class BenchTask(NamedTuple):
    """One bench query: map_id, grid, scenario index, start and goal
    (cells) and the map's scenario seed, in that order."""

    map_id: str
    grid: GridMap
    scenario: int
    start: Cell
    goal: Cell
    seed: int


@dataclass
class BenchRow:
    """One planner run, as written to the results CSV.

    status extends the planner statuses with "invalid" for runs whose
    input the planner rejected (e.g. endpoints off a required
    sublattice); those carry no cost, expansions or path.
    """

    map_id: str
    algo: str
    scenario: int
    seed: int
    status: str
    time_s: float
    cost: float | None
    expansions: list[int]
    path_len: int

    @classmethod
    def from_result(
        cls, map_id: str, algo: str, scenario: int, seed: int, result: PlanResult
    ) -> "BenchRow":
        cost = result.cost if result.status == "solved" else None
        return cls(map_id, algo, scenario, seed, result.status, result.wall_time, cost,
                   list(result.expansions), len(result.path))

    @classmethod
    def invalid(cls, map_id: str, algo: str, scenario: int, seed: int) -> "BenchRow":
        return cls(map_id, algo, scenario, seed, "invalid", 0.0, None, [], 0)


# The one name -> planner table, shared by `mrastar plan`, `mrastar bench`
# and run_bench.  Each entry takes (grid, start, goal, ladder, config,
# log_expansions):
#   mra: the multi-resolution planner over the full ladder.
#   wa-high: weighted A* on the unit lattice with w = w1.
#   wa-low: weighted A* on the coarsest ladder scale with w = w1.
#   wa-mr: weighted A* over the union action space with w = w1.
#   astar: plain A* on the unit lattice.
ALGOS = {
    "mra": lambda grid, start, goal, ladder, config, log: plan(
        Problem(grid, start, goal, ladder), config, log_expansions=log
    ),
    "wa-high": lambda grid, start, goal, ladder, config, log: weighted_astar(
        grid, start, goal, multiplier=1, w=config.w1, timeout=config.timeout,
        log_expansions=log,
    ),
    "wa-low": lambda grid, start, goal, ladder, config, log: weighted_astar(
        grid, start, goal, multiplier=ladder.multipliers[-1], w=config.w1,
        timeout=config.timeout, log_expansions=log,
    ),
    "wa-mr": lambda grid, start, goal, ladder, config, log: wa_union(
        grid, start, goal, ladder, w=config.w1, timeout=config.timeout,
        log_expansions=log,
    ),
    "astar": lambda grid, start, goal, ladder, config, log: weighted_astar(
        grid, start, goal, multiplier=1, w=1.0, timeout=config.timeout,
        log_expansions=log,
    ),
}


def _planner(algo: str):
    """The ALGOS entry named algo; InvalidProblemError for any other."""
    if algo not in ALGOS:
        raise InvalidProblemError(f"unknown algo {algo!r}; choose from {','.join(ALGOS)}")
    return ALGOS[algo]


def run_algo(
    algo: str,
    grid: GridMap,
    start: Cell,
    goal: Cell,
    ladder: ResolutionLadder,
    config: PlannerConfig,
    *,
    log_expansions: bool = False,
) -> PlanResult:
    """Run the planner ALGOS names algo on one query.

    ladder is a ResolutionLadder or any sequence that makes one.
    Raises InvalidProblemError for an unknown algo or a bad ladder, and
    when the query violates the planner's preconditions (notably wa-low
    with endpoints off its sublattice).
    """
    if not isinstance(ladder, ResolutionLadder):
        ladder = ResolutionLadder(ladder)
    return _planner(algo)(grid, start, goal, ladder, config, log_expansions)


def _check_algos(algos: list[str]) -> None:
    """Raise InvalidProblemError unless algos, the planners of one bench
    run (`mrastar bench --algos`), names at least one ALGOS entry, each
    known and none twice."""
    if not algos:
        raise InvalidProblemError(f"--algos names no algo; choose from {','.join(ALGOS)}")
    for n, algo in enumerate(algos):
        _planner(algo)
        if algo in algos[:n]:
            raise InvalidProblemError(f"--algos names {algo!r} twice")


def _run_one(task: BenchTask, algo: str, ladder: ResolutionLadder,
             config: PlannerConfig) -> BenchRow:
    """One bench row: algo on task, or an invalid row if it refuses the
    query."""
    try:
        result = run_algo(algo, task.grid, task.start, task.goal, ladder, config)
    except InvalidProblemError:
        return BenchRow.invalid(task.map_id, algo, task.scenario, task.seed)
    return BenchRow.from_result(task.map_id, algo, task.scenario, task.seed, result)


def make_tasks(
    maps: list[tuple[str, GridMap]], scenarios_per_map: int, seed: int
) -> list[BenchTask]:
    """Sample scenarios for each map; map index offsets the seed so maps
    get distinct but reproducible scenario sets.  Raises
    InvalidProblemError, before sampling any scenario, when two maps
    share a map id: summarize keys instances by (map id, scenario), so
    their rows would count as one."""
    seen = set()
    for map_id, _ in maps:
        if map_id in seen:
            raise InvalidProblemError(f"two maps share the map id {map_id!r}")
        seen.add(map_id)
    tasks = []
    for idx, (map_id, grid) in enumerate(maps):
        scens = gen_scenarios(grid, scenarios_per_map, seed + idx, map_id=map_id)
        if scens:
            # each row is tuple.__new__(BenchTask, its fields), as gen_scenarios
            # builds its Scenario rows, which skips the call to BenchTask.__new__
            _, index, start, goal, _ = zip(*scens)
            fields = zip(repeat(map_id), repeat(grid), index, start, goal, repeat(seed + idx))
            tasks += map(tuple.__new__, repeat(BenchTask), fields)
    return tasks


def run_bench(
    tasks: list[BenchTask],
    algos: list[str],
    ladder: ResolutionLadder,
    config: PlannerConfig,
) -> list[BenchRow]:
    """Run every algo on every task, one after another in this process;
    rows come back sorted by (map, algo, scenario).  ladder is a
    ResolutionLadder or any sequence that makes one.  Raises
    InvalidProblemError, before any task runs, for algos that
    _check_algos refuses and for a bad ladder."""
    _check_algos(algos)
    if not isinstance(ladder, ResolutionLadder):
        ladder = ResolutionLadder(ladder)
    rows = [_run_one(task, algo, ladder, config) for task in tasks for algo in algos]
    rows.sort(key=lambda r: (r.map_id, r.algo, r.scenario))
    return rows


def _write_csv(path: str, fields, rows) -> None:
    """Write a header of fields, then rows (lists of cells), to path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)


def _six(x: float | None) -> str:
    """x with six decimals; empty when x is None or not finite."""
    return f"{x:.6f}" if x is not None and math.isfinite(x) else ""


RESULTS_CSV_FIELDS = (
    "map",
    "algo",
    "scenario",
    "seed",
    "status",
    "time_s",
    "cost",
    "expansions_total",
    "expansions_per_queue",
    "path_len",
)


def write_results_csv(rows, path: str) -> None:
    """Write bench rows sorted by (map, algo, scenario) so output files
    are deterministic regardless of execution order.  Costs and times
    use six decimals; per-queue expansion counts are |-separated."""
    ordered = sorted(rows, key=lambda r: (r.map_id, r.algo, r.scenario))
    _write_csv(path, RESULTS_CSV_FIELDS, (
        [r.map_id, r.algo, r.scenario, r.seed, r.status, f"{r.time_s:.6f}", _six(r.cost),
         sum(r.expansions), "|".join(str(e) for e in r.expansions), r.path_len]
        for r in ordered
    ))


SUMMARY_CSV_FIELDS = (
    "algo",
    "subset",
    "instances",
    "solved",
    "success_rate_pct",
    "mean_time_s",
    "mean_cost",
    "mean_expansions",
    "time_ratio_vs_mra",
    "cost_ratio_vs_mra",
    "expansions_ratio_vs_mra",
)


def _mean(values) -> float | None:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def summarize(rows: list[BenchRow]) -> list[dict]:
    """Per-algo aggregates over two subsets: "all" runs, and "common"
    (instances solved by every algo present).  Ratio columns divide the
    baseline's common-subset mean by mra's (> 1 means mra is better on
    time/expansions); they are empty when mra is absent."""
    algos = sorted({r.algo for r in rows})
    by_instance: dict[tuple[str, int], dict[str, BenchRow]] = {}
    for r in rows:
        by_instance.setdefault((r.map_id, r.scenario), {})[r.algo] = r
    common_keys = [
        key
        for key, per_algo in sorted(by_instance.items())
        if all(a in per_algo and per_algo[a].status == "solved" for a in algos)
    ]

    def aggregate(algo: str, subset_rows: list[BenchRow], subset: str) -> dict:
        solved = [r for r in subset_rows if r.status == "solved"]
        return {
            "algo": algo,
            "subset": subset,
            "instances": len(subset_rows),
            "solved": len(solved),
            "success_rate_pct": (
                100.0 * len(solved) / len(subset_rows) if subset_rows else 0.0
            ),
            "mean_time_s": _mean(r.time_s for r in subset_rows if r.status != "invalid"),
            "mean_cost": _mean(r.cost for r in solved),
            "mean_expansions": _mean(sum(r.expansions) for r in solved),
        }

    out = []
    for algo in algos:
        mine = [r for r in rows if r.algo == algo]
        common = [by_instance[key][algo] for key in common_keys]
        out.append(aggregate(algo, mine, "all"))
        out.append(aggregate(algo, common, "common"))

    mra_common = next(
        (s for s in out if s["algo"] == "mra" and s["subset"] == "common"), None
    )
    for s in out:
        for field, ratio_field in (
            ("mean_time_s", "time_ratio_vs_mra"),
            ("mean_cost", "cost_ratio_vs_mra"),
            ("mean_expansions", "expansions_ratio_vs_mra"),
        ):
            s[ratio_field] = None
            if (
                s["subset"] == "common"
                and mra_common is not None
                and s["algo"] != "mra"
                and s[field] is not None
                and mra_common[field]
            ):
                s[ratio_field] = s[field] / mra_common[field]
    return out


def write_summary_csv(summary: list[dict], path: str) -> None:
    def fmt(key: str, value) -> str:
        if key in ("instances", "solved"):
            return str(value)
        return f"{value:.2f}" if key == "success_rate_pct" else _six(value)

    _write_csv(path, SUMMARY_CSV_FIELDS, (
        [s["algo"], s["subset"]] + [fmt(k, s[k]) for k in SUMMARY_CSV_FIELDS[2:]]
        for s in summary
    ))


def run_sweep(
    tasks: list[BenchTask],
    vary: str,
    values: list[float],
    base_config: PlannerConfig,
    ladder: ResolutionLadder,
    repeats: int = 1,
) -> list[dict]:
    """Run the multi-resolution planner over tasks once per parameter
    value and repeat; returns one aggregate dict per value, in the order
    given.

    Values are interleaved: for each task and each repeat, every value
    runs back to back before the next repeat starts, so a slow phase of
    the host falls on all values alike rather than on one value's block.
    Each task first runs once untimed, with the first value, so that no
    value is timed on the map's cold caches (the decoded moves fill on
    first use).  mean_time_s is the mean over tasks of each task's
    minimum wall time over repeats.  solved and mean_cost (over solved
    tasks) come from each task's last repeat.  Before anything is
    planned, vary must be w1 or w2, each value pass grid.check_real and
    repeats grid.check_int with least 1; ValueError otherwise."""
    if vary not in ("w1", "w2"):
        raise ValueError(f"vary must be w1 or w2, got {vary!r}")
    repeats = check_int("repeats", repeats, least=1)
    configs = [replace(base_config, **{vary: float(check_real(vary, v))}) for v in values]
    best_times = [[math.inf] * len(tasks) for _ in configs]
    last_results = [[None] * len(tasks) for _ in configs]
    for t, task in enumerate(tasks):
        problem = Problem(task.grid, task.start, task.goal, ladder)
        if configs:  # the untimed warm-up
            plan(problem, configs[0])
        for _ in range(repeats):
            for i, config in enumerate(configs):
                result = plan(problem, config)
                best_times[i][t] = min(best_times[i][t], result.wall_time)
                last_results[i][t] = result
    out = []
    for value, times, results in zip(values, best_times, last_results):
        costs = [r.cost for r in results if r.status == "solved"]
        out.append({"param": vary, "value": float(value), "instances": len(tasks),
                    "solved": len(costs), "mean_time_s": _mean(times), "mean_cost": _mean(costs)})
    return out


SWEEP_CSV_FIELDS = ("param", "value", "instances", "solved", "mean_time_s", "mean_cost")


def write_sweep_csv(rows: list[dict], path: str) -> None:
    _write_csv(path, SWEEP_CSV_FIELDS, (
        [r["param"], f"{r['value']:g}", r["instances"], r["solved"],
         _six(r["mean_time_s"]), _six(r["mean_cost"])]
        for r in rows
    ))
