"""Smoke run of the set-up layers of scripts/bench_plan.py, the per-layer
set-up timer: one or two tiny maps per family and one round, this
checkout given twice."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_plan", ROOT / "scripts" / "bench_plan.py")
bench_plan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_plan)
Family = bench_plan.Family

TINY = (
    Family("tiny3d", 3, (4, 5), 0.2, 1, 1, (1.0, 9.0), 10, (1, 3), "program", ("mra",), "dts"),
    Family("tiny2d", 2, (6, 8), 0.3, 2, 1, (1.0, 12.0), 10, (1, 3), "bench",
           bench_plan.BENCH_ALGOS, "round_robin"),
)
LAYERS = ["parse", "labels", "scenarios", "move_table k=1", "move_table k=3",
          "space_masks", "first_query", "setup"]


def test_bench_setup_smoke(tmp_path):
    run = bench_plan.measure([ROOT, ROOT], TINY, rounds=1)
    assert len(run["trees"]) == 2 and run["trees"][0] == run["trees"][1]
    assert [f["name"] for f in run["families"]] == ["tiny3d", "tiny2d"]
    rows = [r for r in run["results"] if r["case"] in LAYERS]
    for family in ("tiny3d", "tiny2d"):
        assert [r["case"] for r in rows if r["family"] == family and r["tree"] == 0] == LAYERS
    maps = {f.name: f.maps for f in TINY}
    for r in rows:
        assert 0 <= r["min_ms"] <= r["q1_ms"] <= r["median_ms"] <= r["q3_ms"]
        assert r["work"] is None if r["case"] == "setup" else len(r["work"]) == maps[r["family"]]
    # the same tree twice does the same work, so every layer gets a ratio
    work = {(r["family"], r["case"], r["tree"]): r["work"] for r in rows}
    for (family, case, tree), w in work.items():
        assert w == work[family, case, 0]
    assert all(r["ratio"] is not None for r in rows if r["tree"] == 1)
    assert [w["count"] for w in work["tiny3d", "scenarios", 0]] == [10]
    assert [w["count"] for w in work["tiny2d", "scenarios", 0]] == [10, 10]
    assert work["tiny2d", "parse", 0][0]["cells"] >= 36

    out = tmp_path / "BENCH_plan.json"
    bench_plan.append_run(out, run)
    bench_plan.append_run(out, run)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == bench_plan.SCHEMA and len(doc["runs"]) == 2
    assert doc["runs"][1] == json.loads(json.dumps(run))
