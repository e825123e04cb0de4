"""Smoke run of scripts/bench_plan.py, the A/B timer of the set-up
layers, the plan pass and the oracle: one or two tiny maps per family and
two rounds, this checkout given twice."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_plan", ROOT / "scripts" / "bench_plan.py")
bench_plan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_plan)
Family = bench_plan.Family

TINY = (
    Family("tiny3d", 3, (5, 6), 0.2, 1, 3, (2.0, 9.0), 10, (1, 3), "program", ("mra",), "dts"),
    Family("tiny2d", 2, (8, 10), 0.2, 2, 2, (3.0, 12.0), 30, (1, 3), "bench",
           bench_plan.BENCH_ALGOS, "round_robin"),
)
SETUP = ("parse", "labels", "scenarios", "move_table k=1", "move_table k=3",
         "space_masks", "first_query", "setup")
STATS = ("min_ms", "q1_ms", "median_ms", "q3_ms")


def test_bench_plan_smoke(tmp_path):
    run = bench_plan.measure([ROOT, ROOT], TINY, rounds=2)
    assert set(run) == {"trees", "host", "rounds", "seed", "families", "tasks", "results"}
    assert len(run["trees"]) == 2 and run["trees"][0] == run["trees"][1]
    assert set(run["trees"][0]) == {"commit", "dirty"}
    assert [f["name"] for f in run["families"]] == ["tiny3d", "tiny2d"]
    assert 0 < run["tasks"]["tiny3d"] <= 3 and 0 < run["tasks"]["tiny2d"] <= 4
    items = {f.name: f.maps for f in TINY}  # set-up items
    rows = run["results"]
    # every quartile lies within the times it summarizes (the exclusive
    # rule of statistics.quantiles puts 0.75 and 2.25 here)
    assert bench_plan.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert [(r["family"], r["case"], r["tree"]) for r in rows] == [
        (f, c, t) for f in ("tiny3d", "tiny2d") for c in (*SETUP, "plan", "oracle") for t in (0, 1)]
    for r in rows:
        setup = r["case"] in SETUP
        assert set(r) == ({"family", "case", "tree", "digest", *STATS} | ({"work"} if setup else set())
                          | ({"ratio", "wins"} if r["tree"] else set()))
        assert 0 <= r["min_ms"] <= r["q1_ms"] <= r["median_ms"] <= r["q3_ms"]
        if setup:
            assert r["work"] is None if r["case"] == "setup" else len(r["work"]) == items[r["family"]]
    # the same tree twice does the same work, so it gets a ratio
    for first, second in zip(rows[::2], rows[1::2]):
        assert second["digest"] == first["digest"] and second.get("work") == first.get("work")
        assert second["ratio"]["q1"] <= second["ratio"]["median"] <= second["ratio"]["q3"]
        n = items[first["family"]] if first["case"] in SETUP else run["tasks"][first["family"]]
        assert 0 <= second["wins"] <= n
    work = {(r["family"], r["case"]): r["work"] for r in rows if r["tree"] == 0 and "work" in r}
    assert [w["count"] for w in work["tiny3d", "scenarios"]] == [10]
    assert [w["count"] for w in work["tiny2d", "scenarios"]] == [30, 30]
    assert work["tiny2d", "parse"][0]["cells"] >= 36

    out = tmp_path / "BENCH_plan.json"
    bench_plan.append_run(out, run)
    bench_plan.append_run(out, run)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == bench_plan.SCHEMA and len(doc["runs"]) == 2
    assert doc["runs"][1] == json.loads(json.dumps(run))


def test_bench_plan_gives_no_ratio_for_different_work(monkeypatch):
    # tree 1's oracle answers differ from tree 0's: no ratio for that case
    real = bench_plan.Runner.oracle

    def oracle(self, task):
        cost = real(self, task)
        return cost + 1.0 if self.m.__name__.endswith("1") else cost

    monkeypatch.setattr(bench_plan.Runner, "oracle", oracle)
    run = bench_plan.measure([ROOT, ROOT], TINY[:1], rounds=1)
    by_case = {r["case"]: r for r in run["results"] if r["tree"] == 1}
    assert by_case["plan"]["ratio"] is not None and by_case["setup"]["ratio"] is not None
    assert by_case["oracle"]["ratio"] is None and by_case["oracle"]["wins"] is None
