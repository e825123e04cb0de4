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
from mrastar.policies import POLICIES
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


def test_plan_negative_seed_usage_error(empty10, capsys):
    # -1 used to be taken and then fail inside the dts search with only
    # numpy's "expected non-negative integer"
    code = run_cli(
        "plan", "--map", empty10, "--format", "movingai",
        "--start", "0,0", "--goal", "9,9", "--policy", "dts", "--seed", "-1",
    )
    assert code == 1
    assert "mrastar: error: seed must be >= 0, got -1" in capsys.readouterr().err


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
    ("--start", "-1,0", "start (-1, 0) is out of bounds"),
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


def test_plan_takes_every_policy_name(empty10, capsys, monkeypatch):
    # --policy offers every POLICIES name, one added to the table
    # included, and the rr alias; each plans through `mrastar plan`
    monkeypatch.setitem(POLICIES, "round_robin_too", POLICIES["round_robin"])
    for name in (*POLICIES, "rr"):
        code = run_cli(
            "plan", "--map", empty10, "--format", "movingai", "--res", "1,3",
            "--start", "0,0", "--goal", "9,9", "--policy", name,
        )
        assert code == 0, name
        assert plan_line(capsys)["status"] == "solved", name


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


def test_plan_cell_of_the_wrong_dimension_meets_the_cell_check(empty10, capsys):
    # the parser used to count the coordinates itself: "bad cell
    # '1,2,3,4'; expected 2 or 3 coordinates"
    assert run_cli("plan", "--map", empty10, "--format", "movingai",
                   "--start", "1,2,3,4", "--goal", "9,9") == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == "mrastar: error: start (1, 2, 3, 4) is not a 2D cell"
    assert captured.out == ""


@pytest.mark.parametrize("flag,text,example", [
    ("--start", "0;0", "0,0"), ("--goal", "9,x", "9,9"), ("--goal", "", "9,9"),
])
def test_plan_bad_cell_names_the_option_and_text(empty10, capsys, flag, text, example):
    argv = {"--start": "0,0", "--goal": "9,9", flag: text}
    assert run_cli("plan", "--map", empty10, "--format", "movingai",
                   *(a for kv in argv.items() for a in kv)) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == (f"mrastar: error: bad {flag} {text!r}; expected integers "
                                    f"separated by commas, e.g. {example}")
    assert captured.out == ""


@pytest.mark.parametrize("res", ["1,,3", "1,3.0", "x"])
def test_plan_bad_res_names_the_option_and_text(empty10, capsys, res):
    # int()'s own message named neither: "invalid literal for int() with base 10: ''"
    assert run_cli("plan", "--map", empty10, "--format", "movingai", "--res", res,
                   "--start", "0,0", "--goal", "9,9") == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == (f"mrastar: error: bad --res {res!r}; expected integers "
                                    "separated by commas, e.g. 1,7,21")
    assert captured.out == ""


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


def test_plan_emit_svg_on_3d_map_refused_before_planning(tmp_path, capsys):
    # a 3D map has no SVG: refused once the map is loaded, so nothing is
    # planned or printed and neither output file is written
    vox = tmp_path / "cube.vox3"
    vox.write_text(serialize_vox3(GridMap.empty((5, 5, 5))))
    out = tmp_path / "path.csv"
    svg_file = tmp_path / "plan.svg"
    code = run_cli(
        "plan", "--map", vox, "--format", "vox3", "--res", "1",
        "--start", "0,0,0", "--goal", "4,4,4",
        "--emit-path", out, "--emit-svg", svg_file,
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip() == "mrastar: error: SVG rendering expects a 2D map"
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


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--scenarios", "0", "argument --scenarios: must be >= 1, got 0"),
        ("--scenarios", "-2", "argument --scenarios: must be >= 1, got -2"),
        ("--algos", ",", "--algos names no algo"),
        ("--algos", "mra,wa-mr,mra", "--algos names 'mra' twice"),
    ],
)
def test_bench_refuses_empty_run(tmp_path, capsys, flag, value, message):
    # these used to write an empty CSV (a repeated algo: every row twice) and exit 0
    g = syn.random_grid((12, 12), 0.1, seed=3)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    out = tmp_path / "results.csv"
    code = run_cli(
        "bench", "--maps", tmp_path / "*.map", "--format", "movingai",
        flag, value, "--out", out,
    )
    assert code == 1 and not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("algos,message", [
    ("mra,bfs", f"unknown algo 'bfs'; choose from {','.join(ALGOS)}"),
    ("mra,wa-mr,mra", "--algos names 'mra' twice"),
    (",", f"--algos names no algo; choose from {','.join(ALGOS)}"),
], ids=["unknown", "repeated", "none"])
def test_bench_checks_algos_before_sampling(tmp_path, capsys, monkeypatch, algos, message):
    # --algos used to be refused only after every map's scenarios were sampled
    monkeypatch.setattr(cli, "make_tasks", lambda *a: pytest.fail("make_tasks was called"))
    g = syn.random_grid((12, 12), 0.1, seed=3)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    out = tmp_path / "results.csv"
    code = run_cli(
        "bench", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--algos", algos, "--out", out,
    )
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.strip() == f"mrastar: error: {message}"


def test_bench_no_maps_matched(tmp_path, capsys):
    code = run_cli(
        "bench", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--out", tmp_path / "r.csv",
    )
    assert code == 1
    assert "no maps matched" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_maps_sharing_a_file_name_are_refused(tmp_path, capsys, command):
    # the file name is the map id: two maps of one name used to give rows
    # that differed only in seed, and summarize counted them as one
    for sub, seed in (("a", 1), ("b", 2)):
        (tmp_path / sub).mkdir()
        g = syn.random_grid((12, 12), 0.1, seed=seed)
        (tmp_path / sub / "x.map").write_text(serialize_movingai(g))
    out = tmp_path / "r.csv"
    extra = ["--vary", "w2", "--values", "1"] if command == "sweep" else []
    code = run_cli(command, "--maps", tmp_path / "*" / "x.map", "--format", "movingai",
                   *extra, "--out", out)
    captured = capsys.readouterr()
    assert code == 1 and not out.exists() and captured.out == ""
    a, b = (str(tmp_path / sub / "x.map") for sub in "ab")
    assert f"maps {a!r} and {b!r} share the file name 'x.map'" in captured.err


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


@pytest.mark.parametrize(
    "flag,value",
    [("--scenarios", "0"), ("--scenarios", "-1"), ("--repeats", "0"), ("--repeats", "x")],
)
def test_sweep_refuses_bad_counts(tmp_path, capsys, flag, value):
    # --scenarios 0 used to die formatting a None mean time, and
    # --repeats 0 was quietly run as 1
    g = syn.random_grid((12, 12), 0.1, seed=6)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--vary", "w2", "--values", "1,3", flag, value, "--out", out,
    )
    assert code == 1 and not out.exists()
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["1,x", "1,,3"])
def test_sweep_bad_values_names_the_option_and_text(tmp_path, capsys, values):
    # float()'s own message named neither: "could not convert string to float: 'x'"
    g = syn.random_grid((12, 12), 0.1, seed=6)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--vary", "w2", "--values", values, "--out", out,
    )
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.strip() == (
        f"mrastar: error: bad --values {values!r}; expected numbers separated by commas, "
        "e.g. 1,2,3")


@pytest.mark.parametrize("vary,fixed", [("w1", "w2"), ("w2", "w1")])
def test_sweep_bad_fix_names_the_weight_it_sets(tmp_path, capsys, vary, fixed):
    # --fix set both weights, so with --vary w1 a bad --fix was blamed on w1
    g = syn.random_grid((12, 12), 0.1, seed=6)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--vary", vary, "--values", "2", "--fix", "0.5", "--out", out,
    )
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.strip() == (
        f"mrastar: error: {fixed} must be a finite number >= 1, got 0.5")


def test_sweep_prints_dash_for_missing_mean(tmp_path, capsys, monkeypatch):
    g = syn.random_grid((12, 12), 0.1, seed=6)
    (tmp_path / "m.map").write_text(serialize_movingai(g))
    row = {"param": "w2", "value": 1.0, "instances": 0, "solved": 0,
           "mean_time_s": None, "mean_cost": None}
    monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: [row])
    code = run_cli(
        "sweep", "--maps", tmp_path / "*.map", "--format", "movingai",
        "--vary", "w2", "--values", "1", "--out", tmp_path / "s.csv",
    )
    assert code == 0
    assert "w2=1 mean_time_s=- solved=0/0" in capsys.readouterr().out


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
