"""Benchmark harness: task fan-out, aggregation, sweeps."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from mrastar import bench as B
from mrastar import grid as G
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError, MrastarError
from mrastar.search import PlannerConfig, Problem, plan


@pytest.fixture(scope="module")
def small_setup():
    maps = [
        ("a", syn.random_grid((24, 24), 0.2, seed=1)),
        ("b", syn.random_grid((24, 24), 0.2, seed=2)),
    ]
    ladder = G.ResolutionLadder((1, 7))
    tasks = B.make_tasks(maps, scenarios_per_map=5, seed=100)
    return maps, ladder, tasks


def test_make_tasks_layout(small_setup):
    maps, ladder, tasks = small_setup
    assert len(tasks) == 10
    assert [t.map_id for t in tasks] == ["a"] * 5 + ["b"] * 5
    assert [t.scenario for t in tasks] == list(range(5)) * 2
    # per-map seeds differ so scenario draws differ
    assert tasks[0].seed == 100 and tasks[5].seed == 101
    again = B.make_tasks(maps, scenarios_per_map=5, seed=100)
    assert again == tasks


def test_make_tasks_refuses_maps_sharing_a_map_id(monkeypatch):
    # these used to give 8 rows on ["mra", "astar"], all solved, while
    # summarize, which keys instances by (map id, scenario), counted 2
    # common instances per algo
    sampled = []
    monkeypatch.setattr(B, "gen_scenarios", lambda *a, **k: sampled.append(a) or [])
    g1, g2 = syn.random_grid((12, 12), 0.1, seed=1), syn.random_grid((12, 12), 0.1, seed=2)
    with pytest.raises(InvalidProblemError, match="two maps share the map id 'x'"):
        B.make_tasks([("x", g1), ("x", g2)], 2, 5)
    with pytest.raises(InvalidProblemError, match="'x'"):
        B.make_tasks([("x", g1), ("y", g2), ("x", g1)], 2, 5)
    assert sampled == []


def test_run_bench_cardinality_and_order(small_setup):
    maps, ladder, tasks = small_setup
    rows = B.run_bench(tasks, ["mra", "astar"], ladder, PlannerConfig())
    assert len(rows) == 20  # 2 algos x 10 scenarios
    keys = [(r.map_id, r.algo, r.scenario) for r in rows]
    assert keys == sorted(keys)
    assert {r.algo for r in rows} == {"mra", "astar"}
    for r in rows:
        assert r.status in ("solved", "exhausted", "timeout", "invalid")


@pytest.mark.parametrize("algos", [[], ["mra", "bfs"], ["mra", "astar", "mra"]],
                         ids=["none", "unknown", "repeated"])
def test_run_bench_refuses_a_bad_algo_list(small_setup, algos):
    # a repeated algo used to run, and write, every row twice
    maps, ladder, tasks = small_setup
    with pytest.raises(MrastarError):
        B.run_bench(tasks, algos, ladder, PlannerConfig())


def test_an_unknown_algo_is_refused_one_way(small_setup):
    # run_algo used to raise a plain ValueError, and run_bench a
    # MrastarError, for the same name; a bad ladder used to give run_bench
    # invalid mra and wa-mr rows beside solved astar rows
    maps, ladder, tasks = small_setup
    t, cfg = tasks[0], PlannerConfig()
    for algo, lad, message in (
        ("bfs", ladder, f"unknown algo 'bfs'; choose from {','.join(B.ALGOS)}"),
        ("astar", (1, 2), "multipliers must be odd and >= 1, got 2"),
    ):
        refusals = []
        for call in (lambda: B.run_algo(algo, t.grid, t.start, t.goal, lad, cfg),
                     lambda: B.run_bench(tasks, ["mra", "wa-mr", algo], lad, cfg)):
            with pytest.raises(InvalidProblemError) as info:
                call()
            refusals.append((type(info.value), str(info.value)))
        assert refusals[0] == refusals[1]
        assert refusals[0][1] == message


def test_run_bench_deterministic_modulo_time(small_setup):
    maps, ladder, tasks = small_setup
    cfg = PlannerConfig(policy="dts", seed=5)
    rows1 = B.run_bench(tasks, ["mra", "wa-high"], ladder, cfg)
    rows2 = B.run_bench(tasks, ["mra", "wa-high"], ladder, cfg)
    strip = lambda r: (r.map_id, r.algo, r.scenario, r.seed, r.status, r.cost,
                       tuple(r.expansions), r.path_len)
    assert [strip(r) for r in rows1] == [strip(r) for r in rows2]


def test_run_algo_dispatch(small_setup):
    maps, ladder, tasks = small_setup
    t = tasks[0]
    cfg = PlannerConfig(w1=2.0, w2=2.0)
    res_astar = B.run_algo("astar", t.grid, t.start, t.goal, ladder, cfg)
    res_high = B.run_algo("wa-high", t.grid, t.start, t.goal, ladder, cfg)
    assert res_astar.bound in (None, 1.0)
    if res_astar.status == "solved" and res_high.status == "solved":
        assert res_high.cost <= 2.0 * res_astar.cost + 1e-9
    with pytest.raises(ValueError):
        B.run_algo("bfs", t.grid, t.start, t.goal, ladder, cfg)
    # a plain sequence is a ladder for every algo, as it is for plan
    # (wa-low used to raise AttributeError on one)
    free = syn.random_grid((24, 24), 0.0, seed=1)
    strip = lambda r: (r.status, r.path, r.cost, list(r.expansions), r.generated)
    for algo in B.ALGOS:
        want = B.run_algo(algo, free, (3, 10), (17, 3), ladder, cfg)
        assert want.status == "solved", algo
        assert strip(B.run_algo(algo, free, (3, 10), (17, 3), [1, 7], cfg)) == strip(want), algo


def test_wa_low_rejections_become_invalid_rows(small_setup):
    maps, ladder, tasks = small_setup
    rows = B.run_bench(tasks, ["wa-low"], ladder, PlannerConfig())
    # random unit-lattice endpoints rarely sit on the k=7 sublattice
    statuses = {r.status for r in rows}
    assert "invalid" in statuses
    for r in rows:
        if r.status == "invalid":
            assert r.cost is None and r.expansions == [] and r.path_len == 0
    # a tuple ladder gives the same rows (it used to raise AttributeError)
    strip = lambda r: (r.map_id, r.scenario, r.status, r.cost, r.expansions, r.path_len)
    assert ([strip(r) for r in B.run_bench(tasks, ["wa-low"], (1, 7), PlannerConfig())]
            == [strip(r) for r in rows])


def test_summarize_common_subset_and_ratios(small_setup):
    maps, ladder, tasks = small_setup
    rows = B.run_bench(tasks, ["mra", "astar", "wa-high"], ladder, PlannerConfig())
    summary = B.summarize(rows)
    assert len(summary) == 6  # 3 algos x {all, common}
    by_key = {(s["algo"], s["subset"]): s for s in summary}
    n_common = by_key[("mra", "common")]["instances"]
    assert all(
        by_key[(a, "common")]["instances"] == n_common
        for a in ("astar", "wa-high")
    )
    for s in summary:
        assert 0.0 <= s["success_rate_pct"] <= 100.0
        if s["subset"] == "common" and s["instances"]:
            assert s["success_rate_pct"] == 100.0
    mra = by_key[("mra", "common")]
    for algo in ("astar", "wa-high"):
        s = by_key[(algo, "common")]
        if mra["mean_expansions"] and s["mean_expansions"] is not None:
            assert math.isclose(
                s["expansions_ratio_vs_mra"],
                s["mean_expansions"] / mra["mean_expansions"],
                rel_tol=1e-12,
            )
        assert by_key[(algo, "all")]["expansions_ratio_vs_mra"] is None
    assert mra["expansions_ratio_vs_mra"] is None


def test_summary_csv_formatting(tmp_path, small_setup):
    maps, ladder, tasks = small_setup
    rows = B.run_bench(tasks[:4], ["mra", "astar"], ladder, PlannerConfig())
    summary = B.summarize(rows)
    out = tmp_path / "summary.csv"
    B.write_summary_csv(summary, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(B.SUMMARY_CSV_FIELDS)
    assert len(lines) == 1 + len(summary)
    first = lines[1].split(",")
    rate = first[B.SUMMARY_CSV_FIELDS.index("success_rate_pct")]
    assert "." in rate and len(rate.split(".")[1]) == 2


def test_run_sweep_shape(small_setup, monkeypatch):
    maps, ladder, tasks = small_setup
    sweep = B.run_sweep(
        tasks[:3], "w2", [1.0, 3.0], PlannerConfig(), ladder, repeats=2
    )
    assert [r["value"] for r in sweep] == [1.0, 3.0]
    for r in sweep:
        assert r["param"] == "w2" and r["instances"] == 3
        assert r["mean_time_s"] > 0
        assert r["solved"] <= 3
    with pytest.raises(ValueError):
        B.run_sweep(tasks[:1], "timeout", [1.0], PlannerConfig(), ladder)
    with pytest.raises(InvalidProblemError, match="^repeats must be >= 1, got 0$"):
        B.run_sweep(tasks[:1], "w2", [1.0], PlannerConfig(), ladder, repeats=0)
    assert len(B.run_sweep(tasks[:1], "w2", [1.0], PlannerConfig(), ladder,
                           repeats=np.int64(1))) == 1
    # refused before any plan runs: a float used to raise TypeError after
    # the first warm-up, "2" and None leaked TypeError, and True ran once
    monkeypatch.setattr(B, "plan", lambda problem, config: pytest.fail("planned"))
    for repeats in (2.5, 2.0, "2", None, True):
        with pytest.raises(InvalidProblemError,
                           match=re.escape(f"repeats must be an integer, got {repeats!r}")):
            B.run_sweep(tasks[:1], "w2", [1.0], PlannerConfig(), ladder, repeats=repeats)
    # a value of True used to run as w2 = 1.0, and "x" leaked float()'s
    # "could not convert string to float"
    for value in (True, "x", None):
        with pytest.raises(InvalidProblemError,
                           match=re.escape(f"w2 must be a real number, got {value!r}")):
            B.run_sweep(tasks[:1], "w2", [3.0, value], PlannerConfig(), ladder)


def _per_value_sweep(tasks, vary, values, base, ladder, repeats):
    """The order run_sweep used before interleaving: every task and
    repeat of one value before the next value.  Returns the timing-free
    fields of each row."""
    out = []
    for value in values:
        config = replace(base, **{vary: float(value)})
        costs = []
        for task in tasks:
            for _ in range(repeats):
                result = plan(Problem(task.grid, task.start, task.goal, ladder), config)
            if result.status == "solved":
                costs.append(result.cost)
        mean_cost = sum(costs) / len(costs) if costs else None
        out.append((vary, float(value), len(tasks), len(costs), mean_cost))
    return out


@pytest.mark.parametrize("vary", ["w1", "w2"])
def test_run_sweep_interleaves_values_and_matches_per_value_order(
    small_setup, monkeypatch, vary
):
    maps, ladder, tasks = small_setup
    tasks = tasks[3:7]  # spans both maps
    values = [1.0, 2.0, 5.0]
    repeats = 3
    base = PlannerConfig(policy="dts", seed=5)
    calls = []

    def recording_plan(problem, config):
        calls.append((id(problem.grid), problem.start, problem.goal,
                      getattr(config, vary)))
        return plan(problem, config)

    monkeypatch.setattr(B, "plan", recording_plan)
    rows = B.run_sweep(tasks, vary, values, base, ladder, repeats=repeats)
    # each task's untimed warm-up with the first value, then, within each
    # repeat, every value before the next repeat
    assert calls == [
        (id(t.grid), tuple(t.start), tuple(t.goal), v)
        for t in tasks
        for v in [values[0]] + values * repeats
    ]
    assert [
        (r["param"], r["value"], r["instances"], r["solved"], r["mean_cost"])
        for r in rows
    ] == _per_value_sweep(tasks, vary, values, base, ladder, repeats)
    assert [set(r) for r in rows] == [set(B.SWEEP_CSV_FIELDS)] * len(values)


def test_run_sweep_times_no_value_on_a_tasks_first_plan(small_setup, monkeypatch):
    # a task's first plan fills the map's first-use caches; it used to be
    # timed as the first value's, which then read slower than the same
    # setting later in the list
    maps, ladder, tasks = small_setup
    seen = set()

    def cold_first_plan(problem, config):
        result = plan(problem, config)
        query = (id(problem.grid), problem.start, problem.goal)
        if query not in seen:
            seen.add(query)
            result = replace(result, wall_time=1e6)
        return result

    monkeypatch.setattr(B, "plan", cold_first_plan)
    rows = B.run_sweep(tasks[:3], "w2", [3.0, 3.0, 3.0], PlannerConfig(), ladder)
    assert len(seen) == 3
    assert all(0 < r["mean_time_s"] < 1.0 for r in rows)


def test_sweep_csv(tmp_path, small_setup):
    maps, ladder, tasks = small_setup
    sweep = B.run_sweep(tasks[:2], "w1", [1.0, 10.0], PlannerConfig(), ladder)
    out = tmp_path / "sweep.csv"
    B.write_sweep_csv(sweep, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(B.SWEEP_CSV_FIELDS)
    assert lines[1].startswith("w1,1,2,") and lines[2].startswith("w1,10,2,")
