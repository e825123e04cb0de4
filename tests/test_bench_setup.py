"""Smoke run of scripts/bench_setup.py, the per-layer set-up timer: one
tiny map per family and one repeat, this checkout given twice."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_setup", ROOT / "scripts" / "bench_setup.py")
bench_setup = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_setup)
Family = bench_setup.Family

TINY = (
    Family("tiny3d", 3, (4, 5), 0.2, 1, (1, 3), 10, "program", ("mra",), "dts"),
    Family("tiny2d", 2, (6, 8), 0.3, 1, (1, 3), 10, "bench", bench_setup.BENCH_ALGOS, "round_robin"),
)
LAYERS = ["parse", "labels", "scenarios", "move_table k=1", "move_table k=3",
          "space_masks", "first_query", "setup"]


def test_bench_setup_smoke(tmp_path):
    run = bench_setup.measure([ROOT, ROOT], TINY, repeats=1)
    assert set(run) == {"trees", "host", "repeats", "seed", "families", "same_work", "results"}
    assert len(run["trees"]) == 2 and run["trees"][0] == run["trees"][1]
    assert set(run["trees"][0]) == {"commit", "dirty"}
    assert [f["name"] for f in run["families"]] == ["tiny3d", "tiny2d"]
    rows = run["results"]
    for family in ("tiny3d", "tiny2d"):
        assert [r["layer"] for r in rows if r["family"] == family and r["tree"] == 0] == LAYERS
    for r in rows:
        assert set(r) == {"family", "layer", "tree", "min_ms", "q1_ms", "median_ms", "q3_ms", "work"}
        assert 0 <= r["min_ms"] <= r["q1_ms"] <= r["median_ms"] <= r["q3_ms"]
        assert (r["work"] is None) == (r["layer"] == "setup")
    # the same tree twice does the same work
    assert run["same_work"]
    work = {(r["family"], r["layer"], r["tree"]): r["work"] for r in rows}
    for (family, layer, tree), w in work.items():
        assert w == work[family, layer, 0]
    assert [w["count"] for w in work["tiny3d", "scenarios", 0]] == [10]
    assert work["tiny2d", "parse", 0][0]["cells"] >= 36

    out = tmp_path / "BENCH_setup.json"
    bench_setup.append_run(out, run)
    bench_setup.append_run(out, run)
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == bench_setup.SCHEMA and len(doc["runs"]) == 2
    assert doc["runs"][1] == json.loads(json.dumps(run))
