"""End-to-end CLI behaviour: flags, exit codes, outputs, error hygiene."""

import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from mrastar import cli
from mrastar.bench import ALGOS, run_algo
from mrastar.errors import InvalidProblemError
from mrastar.grid import GridMap, ResolutionLadder
from mrastar.maps_io import load_map, serialize_movingai, serialize_vox3
from mrastar.search import PlannerConfig
from mrastar import synthetic as syn


def movingai_text(w, h, blocked_cols=()):
    rows = []
    for y in range(h):
        rows.append(
            "".join("@" if x in blocked_cols else "." for x in range(w))
        )
    return f"type octile\nheight {h}\nwidth {w}\nmap\n" + "\n".join(rows) + "\n"


@pytest.fixture()
def empty10(tmp_path):
    p = tmp_path / "empty10.map"
    p.write_text(movingai_text(10, 10))
    return p


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def plan_line(capsys):
    out = capsys.readouterr().out.strip().split("\n")[-1]
    return dict(kv.split("=", 1) for kv in out.split())


# ------------------------------------------------------------------ plan


def test_plan_astar_diagonal(empty10, capsys):
    code = run_cli(
        "plan", "--map", empty10, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9", "--algo", "astar",
    )
    assert code == 0
    line = plan_line(capsys)
    assert line["status"] == "solved"
    assert line["cost"] == "12.727922"


def test_plan_mra_within_bound_of_astar(empty10, capsys):
    assert run_cli(
        "plan", "--map", empty10, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9", "--algo", "astar",
    ) == 0
    astar_cost = float(plan_line(capsys)["cost"])
    assert run_cli(
        "plan", "--map", empty10, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9",
        "--algo", "mra", "--res", "1,3,9", "--w1", "3", "--w2", "3",
    ) == 0
    mra_cost = float(plan_line(capsys)["cost"])
    assert mra_cost <= 3.0 * astar_cost + 1e-6


def test_plan_even_multiplier_usage_error(empty10, capsys):
    code = run_cli(
        "plan", "--map", empty10, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9", "--res", "1,4",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "odd" in err


def test_plan_wa_multiplier_endpoints(tmp_path, capsys):
    p = tmp_path / "m.map"
    p.write_text(movingai_text(21, 21))
    code = run_cli(
        "plan", "--map", p, "--format", "movingai", "--res", "1,7",
        "--start", "3,3", "--goal", "17,17", "--algo", "wa-low",
    )
    assert code == 0
    assert plan_line(capsys)["status"] == "solved"


def test_plan_wa_low_off_sublattice_error(empty10, capsys):
    grid = load_map(empty10, "movingai")
    with pytest.raises(InvalidProblemError) as exc:
        run_algo("wa-low", grid, (0, 0), (9, 9), ResolutionLadder((1, 7)),
                 PlannerConfig())
    code = run_cli(
        "plan", "--map", empty10, "--format", "movingai", "--res", "1,7",
        "--start", "0,0", "--goal", "9,9", "--algo", "wa-low",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"mrastar: error: {exc.value}" in err and "sublattice" in err


@pytest.mark.parametrize("algo", list(ALGOS))
def test_plan_matches_run_algo(algo, tmp_path, capsys):
    # (3,3) and (17,17) sit on the k=7 sublattice; every algo solves this map
    grid = syn.random_grid((21, 21), 0.15, seed=6)
    blocked = grid.blocked.copy()
    blocked[3, 3] = blocked[17, 17] = False
    grid = GridMap(grid.extents, blocked)
    p = tmp_path / "m.map"
    p.write_text(serialize_movingai(grid))
    code = run_cli(
        "plan", "--map", p, "--format", "movingai", "--res", "1,7",
        "--start", "3,3", "--goal", "17,17", "--algo", algo,
        "--w1", "2", "--w2", "2", "--policy", "dts", "--seed", "5",
    )
    line = plan_line(capsys)
    want = run_algo(algo, grid, (3, 3), (17, 17), ResolutionLadder((1, 7)),
                    PlannerConfig(w1=2.0, w2=2.0, policy="dts", seed=5))
    assert code == 0 and want.status == "solved"
    assert line["status"] == "solved" and line["cost"] == f"{want.cost:.6f}"
    assert line["expansions"] == "|".join(str(e) for e in want.expansions)
    assert line["generated"] == str(want.generated)


def test_plan_nan_weight_is_a_usage_error(empty10):
    # a subprocess, so that an escaping exception would show as a traceback
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mrastar.cli", "plan", "--map", str(empty10),
         "--format", "movingai", "--start", "0,0", "--goal", "9,9", "--w2", "nan"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "mrastar: error:" in proc.stderr and "w2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flag,value,message", [
    ("--w2", "-inf", "w2 must be a finite number >= 1, got -inf"),
    ("--timeout", "-inf", "timeout must be positive, got -inf"),
    ("--start", "-1,0", "start (-1, 0) is blocked or out of bounds"),
])
def test_plan_negative_values_reach_the_value_checks(empty10, capsys, flag, value, message):
    argv = {"--start": "0,0", "--goal": "9,9", flag: value}
    code = run_cli("plan", "--map", empty10, "--format", "movingai",
                   *(a for kv in argv.items() for a in kv))
    err = capsys.readouterr().err
    assert code == 1
    assert f"mrastar: error: {message}" in err
    assert "expected one argument" not in err


def test_plan_exhausted_exit_2(tmp_path, capsys):
    p = tmp_path / "wall.map"
    p.write_text(movingai_text(10, 10, blocked_cols={5}))
    code = run_cli(
        "plan", "--map", p, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9", "--algo", "astar",
    )
    assert code == 2
    line = plan_line(capsys)
    assert line["status"] == "exhausted" and line["cost"] == "-"


def test_plan_timeout_exit_3(empty10, capsys):
    code = run_cli(
        "plan", "--map", empty10, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9", "--timeout", "1e-12",
    )
    assert code == 3
    assert plan_line(capsys)["status"] == "timeout"


def test_plan_vox3_and_policy_alias(tmp_path, capsys):
    g = syn.random_grid((9, 9, 9), 0.0, seed=0)
    p = tmp_path / "m.vox3"
    p.write_text(serialize_vox3(g))
    code = run_cli(
        "plan", "--map", p, "--format", "vox3", "--res", "1,3,9",
        "--start", "0,0,0", "--goal", "8,8,8", "--policy", "dts", "--seed", "3",
    )
    assert code == 0
    assert plan_line(capsys)["status"] == "solved"


def test_plan_emit_path_and_svg(empty10, tmp_path, capsys):
    path_file = tmp_path / "path.csv"
    svg_file = tmp_path / "plan.svg"
    code = run_cli(
        "plan", "--map", empty10, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9",
        "--emit-path", path_file, "--emit-svg", svg_file,
    )
    assert code == 0
    lines = path_file.read_text().strip().split("\n")
    assert lines[0] == "0,0" and lines[-1] == "9,9"
    root = ET.fromstring(svg_file.read_text())
    assert root.tag.endswith("svg")


def test_plan_usage_errors(empty10, capsys):
    assert run_cli("plan", "--map", empty10, "--format", "movingai",
                   "--start", "0,0") == 1  # missing --goal
    assert run_cli("plan", "--map", empty10, "--format", "movingai",
                   "--start", "0;0", "--goal", "9,9") == 1  # bad cell
    assert run_cli("frobnicate") == 1  # unknown subcommand
    assert run_cli("plan", "--map", "/nonexistent.map", "--format", "movingai",
                   "--start", "0,0", "--goal", "9,9") == 1


def test_plan_parse_error_leaves_no_output(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("type octile\nheight 2\nwidth 2\nmap\n..\nxx\n")
    out = tmp_path / "path.csv"
    svg_file = tmp_path / "plan.svg"
    code = run_cli(
        "plan", "--map", bad, "--format", "movingai",
        "--start", "0,0", "--goal", "1,1",
        "--emit-path", out, "--emit-svg", svg_file,
    )
    assert code == 1
    assert not out.exists() and not svg_file.exists()


# ----------------------------------------------------------------- bench


def test_bench_end_to_end(tmp_path, capsys):
    for name, seed in [("a.map", 1), ("b.map", 2)]:
        g = syn.random_grid((20, 20), 0.15, seed=seed)
        (tmp_path / name).write_text(serialize_movingai(g))
    out = tmp_path / "results.csv"
    summary = tmp_path / "summary.csv"
    code = run_cli(
        "bench", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--res", "1,7", "--scenarios", "5", "--algos", "mra,astar",
        "--seed", "11", "--out", out, "--summary", summary,
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2 * 5  # header + algos x maps x scenarios
    assert "wrote 20 rows" in capsys.readouterr().out
    sum_lines = summary.read_text().strip().split("\n")
    assert len(sum_lines) == 1 + 2 * 2  # header + algos x subsets


def test_bench_unknown_algo_no_partial_output(tmp_path, capsys):
    g = syn.random_grid((12, 12), 0.1, seed=3)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    out = tmp_path / "results.csv"
    code = run_cli(
        "bench", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--algos", "mra,bfs", "--out", out,
    )
    assert code == 1 and not out.exists()
    assert "unknown algo" in capsys.readouterr().err


def test_bench_no_maps_matched(tmp_path, capsys):
    code = run_cli(
        "bench", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--out", tmp_path / "r.csv",
    )
    assert code == 1
    assert "no maps matched" in capsys.readouterr().err


# ----------------------------------------------------------------- sweep


def test_sweep_end_to_end(tmp_path, capsys):
    g = syn.random_grid((20, 20), 0.1, seed=5)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--res", "1,7", "--scenarios", "2", "--vary", "w2",
        "--values", "1,3", "--fix", "3", "--out", out,
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("param,value") and len(lines) == 3
    stdout = capsys.readouterr().out
    assert "w2=1" in stdout and "w2=3" in stdout


def test_sweep_requires_vary(tmp_path, capsys):
    g = syn.random_grid((12, 12), 0.1, seed=6)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    code = run_cli(
        "sweep", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--values", "1,3", "--out", tmp_path / "s.csv",
    )
    assert code == 1


def test_sweep_rejects_weight_flags(tmp_path, capsys):
    # sweep sets both weights from --vary/--values/--fix, so --w1/--w2
    # would be silently ignored; they are usage errors instead
    g = syn.random_grid((12, 12), 0.1, seed=6)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    for flag in ("--w1", "--w2"):
        code = run_cli(
            "sweep", "--maps", tmp_path / "*.map", "--format", "movingai",
            "--vary", "w2", "--values", "1,3", flag, "9", "--out", tmp_path / "s.csv",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "usage:" in err and f"unrecognized arguments: {flag} 9" in err
    assert not (tmp_path / "s.csv").exists()
