"""Smoke run of scripts/bench_plan.py, the A/B timer of the set-up
layers, the plan pass and the oracle: one or two tiny maps per family,
and one cul-de-sac, and two rounds, this checkout given twice."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_plan", ROOT / "scripts" / "bench_plan.py")
bench_plan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_plan)
Family = bench_plan.Family

TINY = (
    Family("tiny3d", 3, (5, 6), 0.2, 1, 3, (2.0, 9.0), 10, (1, 3), "program", ("mra",), "dts",
           extra_setup_maps=1),
    Family("tiny2d", 2, (8, 10), 0.2, 2, 2, (3.0, 12.0), 30, (1, 3), "bench",
           bench_plan.BENCH_ALGOS, "round_robin"),
    Family("culdesac", 2, (96, 96), 0.0, 1, 1, (84.0, 130.0), 1, (1, 7, 21), "culdesac",
           ("mra",), "round_robin", w1=5.0, w2=3.0),
)
STATS = ("min_ms", "q1_ms", "median_ms", "q3_ms")


def setup_cases(ladder):
    return ("parse", "labels", "scenarios", *(f"move_table k={k}" for k in ladder),
            "space_masks", "first_query", "setup")


def test_bench_plan_smoke(tmp_path):
    run = bench_plan.measure([ROOT, ROOT], TINY, rounds=2)
    assert set(run) == {"trees", "host", "rounds", "seed", "families", "tasks", "results"}
    assert len(run["trees"]) == 2 and run["trees"][0] == run["trees"][1]
    assert set(run["trees"][0]) == {"commit", "dirty"}
    assert [f["name"] for f in run["families"]] == ["tiny3d", "tiny2d", "culdesac"]
    assert run["families"][2]["w1"] == 5.0 and run["families"][2]["w2"] == 3.0
    assert 0 < run["tasks"]["tiny3d"] <= 3 and 0 < run["tasks"]["tiny2d"] <= 4
    assert run["tasks"]["culdesac"] == 1
    items = {f.name: f.maps + f.extra_setup_maps for f in TINY}  # set-up items
    rows = run["results"]
    # every quartile lies within the times it summarizes (the exclusive
    # rule of statistics.quantiles puts 0.75 and 2.25 here)
    assert bench_plan.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert [(r["family"], r["case"], r["tree"]) for r in rows] == [
        (f.name, c, t) for f in TINY for c in (*setup_cases(f.ladder), "plan", "oracle")
        for t in (0, 1)]
    for r in rows:
        setup = r["case"] not in ("plan", "oracle")
        assert set(r) == ({"family", "case", "tree", "digest", *STATS} | ({"work"} if setup else set())
                          | ({"ratio", "wins"} if r["tree"] else set()))
        assert 0 <= r["min_ms"] <= r["q1_ms"] <= r["median_ms"] <= r["q3_ms"]
        if setup:
            assert r["work"] is None if r["case"] == "setup" else len(r["work"]) == items[r["family"]]
    # the same tree twice does the same work, so it gets a ratio
    for first, second in zip(rows[::2], rows[1::2]):
        assert second["digest"] == first["digest"] and second.get("work") == first.get("work")
        assert second["ratio"]["q1"] <= second["ratio"]["median"] <= second["ratio"]["q3"]
        per_task = first["case"] in ("plan", "oracle")
        n = run["tasks"][first["family"]] if per_task else items[first["family"]]
        assert 0 <= second["wins"] <= n
    work = {(r["family"], r["case"]): r["work"] for r in rows if r["tree"] == 0 and "work" in r}
    assert [w["count"] for w in work["tiny3d", "scenarios"]] == [10, 10]
    assert [w["count"] for w in work["tiny2d", "scenarios"]] == [30, 30]
    assert [w["count"] for w in work["culdesac", "scenarios"]] == [1]
    assert work["tiny2d", "parse"][0]["cells"] >= 36
    assert work["culdesac", "parse"][0]["cells"] == 96 * 96
    # the tasks lie on the first tiny3d map alone, the second is for set-up
    m, seed = bench_plan.load_tree(ROOT, "_bench_check"), run["seed"]
    runner = bench_plan.Runner(m, TINY[0], bench_plan.map_texts(m, TINY[0], seed), seed)
    assert {t.map_index for t in bench_plan.pick_tasks(runner)} == {0}
    # the cul-de-sac's one task is the instance's own pair, planned at
    # the family's (w1, w2): its work is run_algo's on that query
    ((_, text, (start, goal)),) = bench_plan.map_texts(m, TINY[2], seed)
    config = m.search.PlannerConfig(w1=5.0, w2=3.0, policy="round_robin", seed=seed)
    res = m.bench.run_algo("mra", m.maps_io.parse_movingai_map(text), start, goal,
                           m.grid.ResolutionLadder((1, 7, 21)), config)
    plan_row = next(r for r in rows if (r["family"], r["case"]) == ("culdesac", "plan"))
    assert plan_row["digest"] == bench_plan.digest([[bench_plan.plan_fields(res)]])
    assert res.expansions[0] > 0.9 * sum(res.expansions)  # gate-blocked

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


def test_rounds_below_one_are_refused_before_anything_is_written(monkeypatch, tmp_path):
    # --rounds 0 and -2 used to append a run with no results
    out = tmp_path / "BENCH_plan.json"
    doc = json.dumps({"schema": bench_plan.SCHEMA, "runs": []}) + "\n"
    out.write_text(doc, encoding="utf-8")
    measure = bench_plan.measure
    monkeypatch.setattr(bench_plan, "measure",
                        lambda trees, rounds, seed: measure(trees, TINY[:1], rounds, seed))
    for rounds in (0, -2):
        with pytest.raises(SystemExit) as exc:
            bench_plan.main(["--rounds", str(rounds), "--out", str(out)])
        assert exc.value.code == 2
        with pytest.raises(ValueError, match="rounds must be at least 1"):
            measure([ROOT], TINY[:1], rounds=rounds)
    assert out.read_text(encoding="utf-8") == doc


def test_dirty_means_the_timed_src_tree(monkeypatch, tmp_path):
    # an edit outside src/ used to mark a tree dirty, and an untracked
    # module under src/mrastar/, which the timer imports, did not
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # no enclosing repo
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args], check=True, capture_output=True)

    assert bench_plan.git_state(tmp_path) == {"commit": None, "dirty": None}
    pkg = tmp_path / "src" / "mrastar"
    pkg.mkdir(parents=True)
    (pkg / "grid.py").write_text("A = 1\n")
    (tmp_path / "README.md").write_text("one\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "init")
    state = bench_plan.git_state(tmp_path)
    assert len(state["commit"]) == 40 and state["dirty"] is False
    (tmp_path / "README.md").write_text("two\n")
    (tmp_path / "notes.txt").write_text("")
    assert bench_plan.git_state(tmp_path)["dirty"] is False
    (pkg / "new.py").write_text("")
    assert bench_plan.git_state(tmp_path)["dirty"] is True
    (pkg / "new.py").unlink()
    (pkg / "grid.py").write_text("A = 2\n")
    assert bench_plan.git_state(tmp_path)["dirty"] is True
