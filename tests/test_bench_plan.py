"""Smoke run of scripts/bench_plan.py, the per-task plan timer: one tiny
map per family and two rounds, this checkout given twice."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_plan", ROOT / "scripts" / "bench_plan.py")
bench_plan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_plan)
Family = bench_plan.Family

TINY = (
    Family("tiny3d", 3, (5, 6), 0.2, 1, 3, (2.0, 9.0), 30, (1, 3), "program", ("mra",), "dts"),
    Family("tiny2d", 2, (8, 10), 0.2, 2, 2, (3.0, 12.0), 30, (1, 3), "bench",
           ("mra", "wa-high", "wa-low", "wa-mr", "astar"), "round_robin"),
)
STATS = ("min_ms", "q1_ms", "median_ms", "q3_ms")


def test_bench_plan_smoke(tmp_path):
    run = bench_plan.measure([ROOT, ROOT], TINY, rounds=2)
    assert set(run) == {"trees", "host", "rounds", "seed", "families", "tasks", "results"}
    assert len(run["trees"]) == 2 and run["trees"][0] == run["trees"][1]
    assert [f["name"] for f in run["families"]] == ["tiny3d", "tiny2d"]
    assert 0 < run["tasks"]["tiny3d"] <= 3 and 0 < run["tasks"]["tiny2d"] <= 4
    rows = run["results"]
    assert [(r["family"], r["case"], r["tree"]) for r in rows] == [
        (f, c, t) for f in ("tiny3d", "tiny2d") for c in ("plan", "oracle") for t in (0, 1)]
    for r in rows:
        assert set(r) == {"family", "case", "tree", "digest", *STATS} | ({"ratio", "wins"} if r["tree"] else set())
        assert 0 <= r["min_ms"] <= r["q1_ms"] <= r["median_ms"] <= r["q3_ms"]
    # the same tree twice does the same work, so it gets a ratio
    for first, second in zip(rows[::2], rows[1::2]):
        assert second["digest"] == first["digest"]
        assert second["ratio"]["q1"] <= second["ratio"]["median"] <= second["ratio"]["q3"]
        assert 0 <= second["wins"] <= run["tasks"][second["family"]]

    out = tmp_path / "BENCH_plan.json"
    bench_plan.bench_setup.append_run(out, run, bench_plan.SCHEMA)
    bench_plan.bench_setup.append_run(out, run, bench_plan.SCHEMA)
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
    assert by_case["plan"]["ratio"] is not None
    assert by_case["oracle"]["ratio"] is None and by_case["oracle"]["wins"] is None
