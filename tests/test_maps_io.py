"""Map parsing/serialization, scenario generation, the module's imports,
and the results CSV layout (bench.write_results_csv).

The whole-array parsers and scenario sampler are checked against the
per-glyph and per-draw code they replaced (oracles.per_glyph_*,
oracles.per_draw_gen_scenarios), and the NamedTuple Scenario against
the frozen dataclass it replaced (oracles.DataclassScenario)."""

import ast
import copy
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrastar import bench as BE
from mrastar import grid as G
from mrastar import maps_io as M
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError, MapParseError, ScenarioGenerationError

import oracles

MOVINGAI_3X3 = "type octile\nheight 3\nwidth 3\nmap\n...\n...\n...\n"

# trimmed corner of a published Starcraft map: T = trees = blocked
MOVINGAI_MIXED = (
    "type octile\n"
    "height 4\n"
    "width 6\n"
    "map\n"
    "..TT..\n"
    ".@@W..\n"
    "..SG..\n"
    "TT....\n"
)


# ------------------------------------------------------------- movingai


def test_parse_movingai_all_free():
    g = M.parse_movingai_map(MOVINGAI_3X3)
    assert g.extents == (3, 3)
    assert int(g.blocked.sum()) == 0


def test_parse_movingai_glyph_classes():
    g = M.parse_movingai_map(MOVINGAI_MIXED)
    assert g.extents == (6, 4)
    for cell in [(2, 0), (3, 0), (1, 1), (2, 1), (3, 1), (0, 3), (1, 3)]:
        assert not g.is_free(cell)  # T, @, W all block
    for cell in [(0, 0), (2, 2), (3, 2), (5, 3)]:
        assert g.is_free(cell)  # ., S, G all passable
    assert int(g.blocked.sum()) == 7


def test_parse_movingai_row_zero_is_y_zero():
    text = "type octile\nheight 2\nwidth 2\nmap\n.@\n..\n"
    g = M.parse_movingai_map(text)
    assert not g.is_free((1, 0)) and g.is_free((1, 1))


@pytest.mark.parametrize(
    "mutate,line",
    [
        (lambda t: t.replace("type octile", "type hex"), 1),
        (lambda t: t.replace("height 3", "height x"), 2),
        (lambda t: t.replace("width 3", "depth 3"), 3),
        (lambda t: t.replace("map\n", "grid\n"), 4),
        (lambda t: t.replace("...\n...\n...\n", "...\n...\n"), 7),
        (lambda t: t + "...\n", 8),
        (lambda t: t.replace("...\n...\n...\n", "...\n..\n...\n"), 6),
    ],
)
def test_parse_movingai_errors_name_line(mutate, line):
    with pytest.raises(MapParseError) as exc:
        M.parse_movingai_map(mutate(MOVINGAI_3X3))
    assert exc.value.line == line


def test_parse_movingai_unknown_glyph_names_column():
    bad = MOVINGAI_3X3.replace("...\n...\n...\n", "...\n.x.\n...\n")
    with pytest.raises(MapParseError) as exc:
        M.parse_movingai_map(bad)
    assert exc.value.line == 6 and exc.value.col == 2


def test_movingai_roundtrip():
    g = M.parse_movingai_map(MOVINGAI_MIXED)
    text = M.serialize_movingai(g)
    g2 = M.parse_movingai_map(text)
    assert g2.extents == g.extents
    assert np.array_equal(g2.blocked, g.blocked)
    # canonical serialization is a fixpoint
    assert M.serialize_movingai(g2) == text


# ----------------------------------------------------------------- vox3

VOX3_SMALL = "vox3 2 2 1\n..\n..\n"


def test_parse_vox3_small():
    g = M.parse_vox3(VOX3_SMALL)
    assert g.extents == (2, 2, 1)
    assert int(g.blocked.sum()) == 0


def test_parse_vox3_single_block():
    text = "vox3 3 2 2\n.#.\n...\n\n...\n...\n"
    g = M.parse_vox3(text)
    assert not g.is_free((1, 0, 0))
    assert int(g.blocked.sum()) == 1
    assert g.is_free((1, 0, 1))


def test_vox3_roundtrip_both_ways():
    rng = np.random.default_rng(61)
    g = G.GridMap((4, 3, 2), rng.random((2, 3, 4)) < 0.4)
    text = M.serialize_vox3(g)
    g2 = M.parse_vox3(text)
    assert g2.extents == g.extents and np.array_equal(g2.blocked, g.blocked)
    assert M.serialize_vox3(g2) == text
    assert M.parse_vox3(M.serialize_vox3(M.parse_vox3(VOX3_SMALL))).extents == (2, 2, 1)


@pytest.mark.parametrize(
    "text",
    [
        "vox 2 2 1\n..\n..\n",  # bad magic
        "vox3 2 2\n..\n..\n",  # missing dim
        "vox3 2 2 1\n..\n.\n",  # short row
        "vox3 2 2 2\n..\n..\n\n..\n",  # missing row in slice 1
        "vox3 2 2 1\n..\nx.\n",  # bad glyph
        "vox3 2 2 2\n..\n..\n..\n..\n",  # missing blank separator
    ],
)
def test_parse_vox3_errors(text):
    with pytest.raises(MapParseError):
        M.parse_vox3(text)


def test_load_map_dispatch(tmp_path):
    p2 = tmp_path / "tiny.map"
    p2.write_text(MOVINGAI_3X3)
    p3 = tmp_path / "tiny.vox3"
    p3.write_text(VOX3_SMALL)
    assert M.load_map(p2, "movingai").dim == 2
    assert M.load_map(p3, "vox3").dim == 3
    assert M.load_map(p2, "movingai").extents == (3, 3)
    with pytest.raises(ValueError):
        M.load_map(p2, "tiff")


# ------------------------------------------------------------- scenarios


def test_gen_scenarios_deterministic():
    g = M.parse_movingai_map(MOVINGAI_3X3)
    a = M.gen_scenarios(g, 5, seed=9)
    b = M.gen_scenarios(g, 5, seed=9)
    assert a == b
    c = M.gen_scenarios(g, 5, seed=10)
    assert a != c


def test_gen_scenarios_connected_and_distinct():
    rng = np.random.default_rng(62)
    g = G.GridMap((20, 16), rng.random((16, 20)) < 0.3)
    scens = M.gen_scenarios(g, 100, seed=3, map_id="m")
    assert len(scens) == 100
    labels = G.fine_components(g)
    for s in scens:
        assert s.map_id == "m"
        assert s.start != s.goal
        assert g.is_free(s.start) and g.is_free(s.goal)
        assert (
            labels[tuple(reversed(s.start))] == labels[tuple(reversed(s.goal))]
        )
    assert [s.index for s in scens] == list(range(100))


def test_gen_scenarios_refuses_a_negative_count():
    g = M.parse_movingai_map(MOVINGAI_3X3)
    # -3 used to return [], like a count of 0
    with pytest.raises(InvalidProblemError, match="^count must be >= 0, got -3$"):
        M.gen_scenarios(g, -3, seed=9)
    assert M.gen_scenarios(g, 0, seed=9) == []


def test_gen_scenarios_refuses_a_negative_seed():
    g = M.parse_movingai_map(MOVINGAI_3X3)
    # -1 used to escape with numpy's "expected non-negative integer"
    with pytest.raises(InvalidProblemError, match="^seed must be >= 0, got -1$"):
        M.gen_scenarios(g, 3, seed=-1)
    with pytest.raises(InvalidProblemError, match="^seed must be >= 0, got -5$"):
        M.gen_scenarios(g, 3, seed=np.int64(-5))


def test_gen_scenarios_two_disconnected_cells(monkeypatch):
    blocked = np.ones((3, 3), bool)
    blocked[0, 0] = False
    blocked[2, 2] = False  # free cells (0,0) and (2,2), severed
    g = G.GridMap((3, 3), blocked)
    monkeypatch.setattr(M, "MAX_ATTEMPTS", 5000)
    with pytest.raises(ScenarioGenerationError):
        M.gen_scenarios(g, 1, seed=0)


def test_gen_scenarios_needs_two_free_cells():
    blocked = np.ones((3, 3), bool)
    blocked[1, 1] = False
    g = G.GridMap((3, 3), blocked)
    with pytest.raises(ScenarioGenerationError):
        M.gen_scenarios(g, 1, seed=0)


def _scenario_outcome(f, *args, **kw):
    try:
        return [(s.map_id, s.index, s.start, s.goal, s.seed) for s in f(*args, **kw)]
    except ScenarioGenerationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "extents,density,seed",
    [((20, 17), 0.3, 1), ((12, 9, 7), 0.25, 2), ((64, 70), 0.3, 3), ((3, 3), 0.9, 4),
     ((1, 1, 5), 0.0, 5), ((2, 1), 0.0, 6)],
)
def test_gen_scenarios_matches_per_draw_reference(extents, density, seed, monkeypatch):
    # same pairs in the same order, and the same error (found count and
    # attempts) when the budget runs out, across seeds, counts and budgets
    g = syn.random_grid(extents, density, seed)
    for count in (0, 1, 7, 300, 2500):
        for max_attempts in (0, 1, 3, 700, 1024, 1500, 20000):
            args = (g, count, seed + count, "m")
            monkeypatch.setattr(M, "MAX_ATTEMPTS", max_attempts)
            got = _scenario_outcome(M.gen_scenarios, *args)
            assert got == _scenario_outcome(
                oracles.per_draw_gen_scenarios, *args, max_attempts=max_attempts)
            if isinstance(got, list) and got:
                assert all(type(c) is int for c in got[0][2] + got[-1][3])


def test_gen_scenarios_disconnected_matches_reference(monkeypatch):
    # two free cells, severed: every draw is rejected
    blocked = np.ones((3, 3), bool)
    blocked[0, 0] = blocked[2, 2] = False
    g = G.GridMap((3, 3), blocked)
    for max_attempts in (1, 1024, 1025, 5000):
        monkeypatch.setattr(M, "MAX_ATTEMPTS", max_attempts)
        got = _scenario_outcome(M.gen_scenarios, g, 1, seed=0)
        assert got == f"found 0/1 connected pairs in {max_attempts} attempts"
        assert got == _scenario_outcome(
            oracles.per_draw_gen_scenarios, g, 1, seed=0, max_attempts=max_attempts
        )
    monkeypatch.undo()
    # two components: only pairs inside one are kept
    blocked = np.zeros((5, 9), bool)
    blocked[:, 4] = True
    g = G.GridMap((9, 5), blocked)
    for seed in range(5):
        got = _scenario_outcome(M.gen_scenarios, g, 50, seed)
        assert got == _scenario_outcome(oracles.per_draw_gen_scenarios, g, 50, seed)


@pytest.mark.parametrize(
    "kw",
    [dict(count=2.5), dict(count=2.0), dict(count="3"), dict(count=True), dict(count=None),
     dict(seed=None), dict(seed=1.0), dict(seed="1"), dict(seed=False)],
)
def test_gen_scenarios_refuses_non_integer_count_and_seed(kw):
    # 2.5 and 2.0 used to escape as a slicing TypeError, "3" as a
    # comparison TypeError, True to return one scenario, and seed=None
    # to draw from OS entropy while each record stored None
    g = M.parse_movingai_map(MOVINGAI_3X3)
    args = dict(count=3, seed=9) | kw
    name = next(iter(kw))
    message = f"{name} must be an integer, got {kw[name]!r}"
    with pytest.raises(InvalidProblemError, match=f"^{re.escape(message)}$"):
        M.gen_scenarios(g, **args)


def test_gen_scenarios_takes_numpy_integers():
    g = M.parse_movingai_map(MOVINGAI_3X3)
    got = M.gen_scenarios(g, np.int64(4), seed=np.uint32(9))
    assert got == M.gen_scenarios(g, 4, seed=9)
    assert all(type(s.seed) is int for s in got)


# -------------------------------------- Scenario against the old dataclass

FIELDS = ("map_id", "index", "start", "goal", "seed")
RECORDS = [
    ("m", 1, (1, 2), (3, 4), 7),
    ("m", 1, (1, 2, 0), (3, 4, 5), 7),
    ("n", 1, (1, 2), (3, 4), 7),
    ("m", 2, (1, 2), (3, 4), 7),
    ("m", 1, (2, 1), (3, 4), 7),
    ("m", 1, (1, 2), (4, 3), 7),
    ("m", 1, (1, 2), (3, 4), 8),
    ("m", 1, (1, 2), (3, 4), 7),  # equal to the first
]


def test_scenario_fields_construction_and_repr_match_the_dataclass():
    old_type = oracles.DataclassScenario
    assert M.Scenario.__match_args__ == old_type.__match_args__ == FIELDS
    for values in RECORDS:
        old = old_type(*values)
        for new in (M.Scenario(*values), M.Scenario(**dict(zip(FIELDS, values)))):
            assert type(new) is M.Scenario
            assert tuple(getattr(new, f) for f in FIELDS) == values
            assert repr(new) == repr(old).replace("DataclassScenario", "Scenario", 1)
    with pytest.raises(TypeError):
        M.Scenario("m", 1, (1, 2), (3, 4))
    with pytest.raises(TypeError):
        M.Scenario("m", 1, (1, 2), (3, 4), 7, 8)


def test_scenario_equality_and_hash_match_the_dataclass():
    old = [oracles.DataclassScenario(*v) for v in RECORDS]
    new = [M.Scenario(*v) for v in RECORDS]
    for a_old, a_new in zip(old, new):
        assert hash(a_new) == hash(a_old)
        for b_old, b_new in zip(old, new):
            assert (a_new == b_new) == (a_old == b_old)
            assert (a_new != b_new) == (a_old != b_old)
    assert new[0] == new[-1] and new[0] is not new[-1]
    assert len({*new}) == len({*old}) == len(RECORDS) - 1


def test_scenario_is_frozen_like_the_dataclass():
    # the dataclass's FrozenInstanceError is an AttributeError
    for rec in (M.Scenario(*RECORDS[0]), oracles.DataclassScenario(*RECORDS[0])):
        for name in ("seed", "start", "other"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 3)
        with pytest.raises(AttributeError):
            del rec.seed
        assert rec.seed == 7


def test_scenario_pickles_and_copies():
    for values in RECORDS[:2]:
        rec = M.Scenario(*values)
        clones = [pickle.loads(pickle.dumps(rec, proto))
                  for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones + [copy.copy(rec), copy.deepcopy(rec)]:
            assert type(clone) is M.Scenario and clone == rec
            assert repr(clone) == repr(rec) and hash(clone) == hash(rec)


def test_gen_scenarios_builds_scenarios_equal_to_the_reference():
    g = syn.random_grid((12, 9, 7), 0.25, 2)
    got = M.gen_scenarios(g, 40, seed=5, map_id="m")
    want = oracles.per_draw_gen_scenarios(g, 40, seed=5, map_id="m")
    assert got == want and all(type(s) is M.Scenario for s in got)
    assert [repr(s) for s in got] == [repr(s) for s in want]


# ------------------------------------------------- parsers vs per-glyph code


def _parse_outcome(parse, text):
    try:
        g = parse(text)
    except MapParseError as exc:
        return str(exc), exc.line, exc.col
    return g.extents, g.blocked.dtype, g.blocked.tobytes()


def _mutations(text, rng, n):
    """n texts, each text with one random edit: a glyph swapped, a
    character dropped or inserted, or the tail cut off."""
    alphabet = list("x.#@GSOTW\n\r \té0")
    for _ in range(n):
        chars = list(text)
        pos = int(rng.integers(0, len(chars)))
        edit = int(rng.integers(0, 4))
        if edit == 0:
            chars[pos] = str(rng.choice(alphabet))
        elif edit == 1:
            del chars[pos]
        elif edit == 2:
            chars.insert(pos, str(rng.choice(alphabet)))
        else:
            chars = chars[:pos]
        yield "".join(chars)


@pytest.mark.parametrize("dim", [2, 3])
def test_parsers_match_per_glyph_reference(dim):
    # blocked arrays on valid texts (every movingai glyph class), and the
    # MapParseError message, line and column on mutated ones
    rng = np.random.default_rng(70 + dim)
    parse, ref = (
        (M.parse_movingai_map, oracles.per_glyph_parse_movingai_map)
        if dim == 2 else (M.parse_vox3, oracles.per_glyph_parse_vox3)
    )
    errors = 0
    for _ in range(150):
        extents = tuple(int(e) for e in rng.integers(1, 9, size=dim))
        blocked = syn.random_grid(extents, float(rng.random()), int(rng.integers(1 << 30))).blocked
        if dim == 2:
            free, wall = np.array(list(".GS")), np.array(list("@OTW"))
            glyphs = np.where(blocked, rng.choice(wall, blocked.shape),
                              rng.choice(free, blocked.shape))
            rows = ["".join(r) for r in glyphs]
            h, w = blocked.shape
            text = "\n".join(["type octile", f"height {h}", f"width {w}", "map", *rows]) + "\n"
        else:
            text = M.serialize_vox3(G.GridMap(extents, blocked))
        want = _parse_outcome(ref, text)
        assert _parse_outcome(parse, text) == want
        assert np.array_equal(np.frombuffer(want[2], bool).reshape(blocked.shape), blocked)
        for bad in _mutations(text, rng, 6):
            got = _parse_outcome(parse, bad)
            assert got == _parse_outcome(ref, bad), bad
            errors += isinstance(got[0], str)
    assert errors > 300  # the mutations mostly reach an error


_MAI = MOVINGAI_MIXED.splitlines()  # 4 header lines, then 4 rows of 6 glyphs
_VOX = "vox3 3 2 2\n.#.\n##.\n\n...\n#..\n".splitlines()  # rows at lines 2, 3, 5, 6


def _text(lines):
    return "\n".join(lines) + "\n"


BOUNDARY_TEXTS = {
    "crlf": (MOVINGAI_MIXED.replace("\n", "\r\n"), _text(_VOX).replace("\n", "\r\n")),
    "cr only": (MOVINGAI_MIXED.replace("\n", "\r"), _text(_VOX).replace("\n", "\r")),
    "no final newline": (MOVINGAI_MIXED.rstrip("\n"), _text(_VOX).rstrip("\n")),
    "trailing blank lines": (MOVINGAI_MIXED + "\n  \n\t\r\n", _text(_VOX) + "\n \n\t\n"),
    "trailing content": (MOVINGAI_MIXED + " \n..\n", _text(_VOX) + "\n#\n"),
    "short row": (_text(_MAI[:6] + [_MAI[6][:-1]] + _MAI[7:]), _text(_VOX[:5] + [".."] + _VOX[6:])),
    "long row": (_text(_MAI[:5] + [_MAI[5] + "."] + _MAI[6:]), _text(_VOX[:2] + ["...."] + _VOX[3:])),
    "missing row": (_text(_MAI[:-1]), _text(_VOX[:-1])),
    "extra row": (_text(_MAI + [_MAI[-1]]), _text(_VOX + [_VOX[-1]])),
    "bad glyph in last row": (_text(_MAI[:-1] + ["TT..x."]), _text(_VOX[:-1] + ["#.#"])),
    "tab in a row": (_text(_MAI[:4] + ["..TT.\t"] + _MAI[5:]), _text(_VOX[:1] + [".\t."] + _VOX[2:])),
    "tab in the header": (
        _text(_MAI[:1] + ["height\t4"] + _MAI[2:]), _text(["vox3\t3 2\t2"] + _VOX[1:])),
    "missing separator": (MOVINGAI_3X3, _text(_VOX[:3] + _VOX[4:])),
    "whitespace separator": (MOVINGAI_3X3, _text(_VOX[:3] + [" \t"] + _VOX[4:])),
    "non-blank separator": (MOVINGAI_3X3, _text(_VOX[:3] + ["..."] + _VOX[4:])),
}
for _v in ("+3", "03", "\u0663", "\u00b2", "0", "-2", "3.0"):  # on maps 3 wide
    BOUNDARY_TEXTS[f"header value {_v!r}"] = (
        MOVINGAI_3X3.replace("width 3", f"width {_v}"),
        _text([f"vox3 {_v} 2 2"] + _VOX[1:]),
    )


@pytest.mark.parametrize("case", sorted(BOUNDARY_TEXTS))
def test_parsers_match_per_glyph_reference_on_boundary_texts(case):
    # line endings, trailing lines, header values int() takes ('+3',
    # '03', Arabic-Indic three) or refuses (superscript two), zero and
    # negative extents, tabs, short and extra rows and the vox3 slice
    # separator: the same blocked array, or the same MapParseError
    # message, line and column, as the per-glyph parsers
    movingai, vox3 = BOUNDARY_TEXTS[case]
    for parse, ref, text in (
        (M.parse_movingai_map, oracles.per_glyph_parse_movingai_map, movingai),
        (M.parse_vox3, oracles.per_glyph_parse_vox3, vox3),
    ):
        assert _parse_outcome(parse, text) == _parse_outcome(ref, text), (parse.__name__, text)


def test_boundary_texts_reach_both_outcomes():
    # the boundary cases above are not all accepted or all refused
    outcomes = [
        isinstance(_parse_outcome(parse, text)[0], str)
        for movingai, vox3 in BOUNDARY_TEXTS.values()
        for parse, text in ((M.parse_movingai_map, movingai), (M.parse_vox3, vox3))
    ]
    assert 10 < sum(outcomes) < len(outcomes) - 10


@settings(max_examples=80)
@given(
    dim=st.sampled_from([2, 3]),
    extents=st.lists(st.integers(1, 40), min_size=3, max_size=3),
    fill=st.sampled_from(["random", "blocked", "free"]),
    seed=st.integers(0, 2**31),
)
def test_roundtrip_property(dim, extents, fill, seed):
    # parse(serialize(g)) == g for every row and slice shape, including
    # all-blocked and all-free maps
    extents = tuple(extents[:dim])
    if fill == "random":
        g = syn.random_grid(extents, 0.4, seed)
    else:
        g = G.GridMap(extents, np.full(tuple(reversed(extents)), fill == "blocked"))
    serialize, parse = (
        (M.serialize_movingai, M.parse_movingai_map)
        if dim == 2 else (M.serialize_vox3, M.parse_vox3)
    )
    text = serialize(g)
    back = parse(text)
    assert back.extents == g.extents
    assert np.array_equal(back.blocked, g.blocked)
    assert serialize(back) == text


# ------------------------------------------------------------ layering


def test_maps_io_imports_no_planner_or_harness():
    tree = ast.parse(Path(M.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    assert not imported & {"search", "baselines", "bench", "policies"}


# ------------------------------------------------------------ results csv


def _bench_rows():
    solved = S.PlanResult(
        status=S.STATUS_SOLVED,
        path=[(0, 0), (1, 1), (2, 2)],
        cost=2 * math.sqrt(2.0),
        expansions=[5, 2, 1],
        generated=11,
        wall_time=0.25,
        winning_queue=1,
        bound=3.0,
    )
    timed_out = S.PlanResult(
        status=S.STATUS_TIMEOUT,
        path=[],
        cost=math.inf,
        expansions=[9],
        generated=40,
        wall_time=1.5,
        winning_queue=None,
    )
    return [
        BE.BenchRow.from_result("mapA", "mra", 0, 7, solved),
        BE.BenchRow.from_result("mapA", "wa-high", 0, 7, timed_out),
    ]


def test_write_results_csv_layout(tmp_path):
    out = tmp_path / "results.csv"
    BE.write_results_csv(_bench_rows(), out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == (
        "map,algo,scenario,seed,status,time_s,cost,"
        "expansions_total,expansions_per_queue,path_len"
    )
    solved_row = lines[1].split(",")
    assert solved_row[:5] == ["mapA", "mra", "0", "7", "solved"]
    assert solved_row[5] == "0.250000"
    assert solved_row[6] == f"{2 * math.sqrt(2.0):.6f}" and float(solved_row[6]) > 0
    assert solved_row[7] == "8" and solved_row[8] == "5|2|1" and solved_row[9] == "3"
    timeout_row = lines[2].split(",")
    assert timeout_row[4] == "timeout"
    assert timeout_row[6] == ""  # no cost on unsolved rows
    assert timeout_row[8] == "9"


def test_results_csv_sorted_and_stable(tmp_path):
    rows = list(reversed(_bench_rows()))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    BE.write_results_csv(rows, a)
    BE.write_results_csv(_bench_rows(), b)
    assert a.read_text() == b.read_text()
