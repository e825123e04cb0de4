"""Tests of the benchmark itself (not of the program).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

Shrunken copies of the workloads keep each run to a second or two.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as W

HERE = Path(__file__).resolve().parent
SMALL = {
    "plan3d": replace(W.SPECS["plan3d"], sizes=(10, 10), maps=1, queries=3,
                      band=(3.0, 8.0), pool=100, oracle_sample=2, oracle_target=50),
    "bench2d": replace(W.SPECS["bench2d"], sizes=(24, 32), maps=2, queries=2, pool=8,
                       band=(4.0, 40.0), oracle_sample=2, oracle_target=50),
}


@pytest.fixture(scope="module")
def mrastar():
    return run.load_program()


def declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_counters_and_digests(mrastar, name):
    a, da = run.run_workload(mrastar, SMALL[name], 7, 0.0, False)
    b, db = run.run_workload(mrastar, SMALL[name], 7, 0.0, False)
    assert a["correct"] and b["correct"], da["failures"] + db["failures"]
    assert da["digests"] == db["digests"]
    assert da["counters"] == db["counters"]
    c, dc = run.run_workload(mrastar, SMALL[name], 8, 0.0, False)
    assert dc["digests"]["scenarios"] != da["digests"]["scenarios"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_maps_depend_on_seed_only(name):
    spec = SMALL[name]
    texts = [m.text for m in W.make_maps(spec, 3)]
    assert texts == [m.text for m in W.make_maps(spec, 3)]
    assert texts != [m.text for m in W.make_maps(spec, 4)]


@pytest.mark.parametrize("shape", [(30, 40), (9, 10, 11)])
def test_reference_costs_match_the_oracle(mrastar, shape):
    rng = np.random.default_rng(len(shape))
    blocked = rng.random(shape) < 0.3
    if len(shape) == 2:
        grid = mrastar.maps_io.parse_movingai_map(W.movingai_text(blocked))
    else:
        grid = mrastar.maps_io.parse_vox3(W.vox3_text(blocked))
    free = [tuple(int(c) for c in reversed(z)) for z in zip(*np.nonzero(~blocked))]
    pairs = [(free[i], free[j]) for i, j in rng.integers(len(free), size=(30, 2))]
    for (a, b), (cost, work) in zip(pairs, W.reference_costs(blocked, pairs)):
        opt = mrastar.baselines.dijkstra_optimal(grid, a, b)
        assert cost == opt or cost == pytest.approx(opt, rel=1e-12)
        assert 0 <= work < blocked.size


def test_choose_pairs_keeps_the_first_candidates_in_band():
    rng = np.random.default_rng(5)
    blocked = rng.random((30, 40)) < 0.2
    free = [tuple(int(c) for c in reversed(z)) for z in zip(*np.nonzero(~blocked))]
    candidates = [(free[i], free[j]) for i, j in rng.integers(len(free), size=(200, 2))]
    band = (20.0, 24.0)
    chosen = W.choose_pairs(blocked, candidates, band, 5)
    in_band = [(p, ref) for p, ref in zip(candidates, W.reference_costs(blocked, candidates))
               if band[0] <= ref[0] <= band[1]]
    assert len(chosen) == 5 and chosen == in_band[:5]


def test_an_oracle_answer_off_the_reference_fails_the_run(mrastar, monkeypatch):
    real = mrastar.baselines.dijkstra_optimal
    monkeypatch.setattr(mrastar.baselines, "dijkstra_optimal", lambda *a: real(*a) * 1.01)
    res, detail = run.run_workload(mrastar, SMALL["bench2d"], 1, 0.0, False)
    assert not res["correct"] and res["failed"] > 0
    assert "reference optimum" in detail["failures"][0]


def test_metrics_match_declaration(mrastar):
    end_to_end, per_layer = declared()
    spec = SMALL["bench2d"]
    res, _ = run.run_workload(mrastar, spec, 1, 0.0, False)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == end_to_end
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert all(v["value"] > 0 for v in res["metrics"].values())
    traced, detail = run.run_workload(mrastar, spec, 1, 0.0, True)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
    assert (HERE.parent / detail["spans_file"]).is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bench2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
