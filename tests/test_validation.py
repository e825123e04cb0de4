"""One validation path for every planner: hostile weights, timeouts,
multipliers and endpoints are refused up front with the same
InvalidProblemError."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrastar import baselines as B
from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError
from mrastar.maps_io import gen_scenarios

GRID = syn.random_grid((16, 16), 0.2, seed=11)
_SC = gen_scenarios(GRID, 1, seed=11)[0]
START, GOAL = _SC.start, _SC.goal
LADDER = G.ResolutionLadder((1, 3, 9))
OPT = B.dijkstra_optimal(GRID, START, GOAL)

# nan, +-inf, finite < 1 and finite >= 1
WEIGHTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=1.0, exclude_max=True, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1.0, allow_nan=False, allow_infinity=False),
)


def test_hypothesis_properties_draw_the_same_examples_every_run():
    # tests/conftest.py loads one derandomized profile for the whole suite
    assert settings.default.derandomize
    assert settings.default.database is None


def _valid(*ws):
    return all(1.0 <= w < math.inf for w in ws)


def _assert_within_bound(res):
    assert res.status == S.STATUS_SOLVED
    assert res.cost <= res.bound * OPT * (1 + 1e-12)


@settings(max_examples=60)
@given(w1=WEIGHTS, w2=WEIGHTS)
def test_plan_hostile_weights(w1, w2):
    if not _valid(w1, w2):
        with pytest.raises(ValueError):
            S.PlannerConfig(w1=w1, w2=w2)
        return
    res = S.plan(S.Problem(GRID, START, GOAL, LADDER), S.PlannerConfig(w1=w1, w2=w2))
    assert res.bound == w2
    _assert_within_bound(res)


@settings(max_examples=40)
@given(w=WEIGHTS)
def test_weighted_astar_hostile_weights(w):
    if not _valid(w):
        with pytest.raises(ValueError):
            B.weighted_astar(GRID, START, GOAL, w=w)
        return
    _assert_within_bound(B.weighted_astar(GRID, START, GOAL, w=w))


@settings(max_examples=40)
@given(w=WEIGHTS)
def test_wa_union_hostile_weights(w):
    if not _valid(w):
        with pytest.raises(ValueError):
            B.wa_union(GRID, START, GOAL, LADDER, w=w)
        return
    _assert_within_bound(B.wa_union(GRID, START, GOAL, LADDER, w=w))


FRONT_DOORS = {
    "Problem": S.Problem,
    "weighted_astar": B.weighted_astar,
    "wa_union": lambda grid, s, g, **kw: B.wa_union(grid, s, g, (1,), **kw),
}


def _bad_queries():
    blocked = np.zeros((8, 8), bool)
    blocked[3, 3] = True
    g2 = G.GridMap((8, 8), blocked)
    return [  # one query per reason, with the one message that names it
        ((g2, (3, 3), (7, 7)), "start (3, 3) is blocked"),
        ((g2, (0, 0), (8, 0)), "goal (8, 0) is out of bounds"),
        ((g2, (0, 0), (1, 2, 3)), "goal (1, 2, 3) is not a 2D cell"),
    ]


@pytest.mark.parametrize("case", range(3))
def test_every_planner_refuses_the_same_way(case):
    # the message used to be "is blocked or out of bounds" for all three
    query, message = _bad_queries()[case]
    messages = set()
    for door in FRONT_DOORS.values():
        with pytest.raises(InvalidProblemError) as exc:
            door(*query)
        messages.add(str(exc.value))
    assert messages == {message}
    if "blocked" not in message:  # the one cell check, behind successors_at_scale too
        with pytest.raises(InvalidProblemError) as exc:
            G.successors_at_scale(query[2], 1, query[0])
        assert str(exc.value) == message.replace("goal", "cell")


@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_the_heuristic_is_not_an_option(door):
    # octile on 2D maps and euclidean on 3D, fixed by the map
    with pytest.raises(TypeError, match="heuristic"):
        FRONT_DOORS[door](GRID, START, GOAL, heuristic="euclidean")


def test_validate_query_builds_no_ladder_per_call():
    assert S.validate_query(GRID, START, GOAL)[2] is S.validate_query(GRID, START, GOAL)[2]
    assert S.validate_query(GRID, START, GOAL, LADDER)[2] is LADDER
    assert S.validate_query(GRID, START, GOAL, [1, 3, 9])[2] == LADDER


def test_single_scale_uses_the_ladder_multiplier_rule():
    g = G.GridMap.empty((16, 16))
    for k in (0, 4, -3):
        with pytest.raises(InvalidProblemError) as want:
            G.ResolutionLadder((1, k))
        with pytest.raises(InvalidProblemError) as got:
            B.weighted_astar(g, (1, 1), (7, 7), multiplier=k)
        assert str(got.value) == str(want.value)


NON_INTEGERS = [0.9, math.inf, math.nan, "1", True]


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
@pytest.mark.parametrize("door", sorted(FRONT_DOORS))
def test_planners_refuse_non_integer_coordinates(door, bad):
    # 0.9 used to plan from (0, 0), "1" and True were accepted and inf
    # escaped as an untyped OverflowError
    g = G.GridMap.empty((5, 4))
    for start, goal in (((bad, 0), (4, 3)), ((0, 0), (4, bad))):
        with pytest.raises(InvalidProblemError, match="non-integer coordinate"):
            FRONT_DOORS[door](g, start, goal)


@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_oracles_refuse_non_integer_coordinates(bad):
    g = G.GridMap.empty((5, 4))
    assert B.dijkstra_optimal(g, (bad, 0), (4, 3)) == math.inf
    assert B.dijkstra_optimal(g, (0, 0), (4, bad)) == math.inf


def test_numpy_integer_coordinates_are_cells():
    g = G.GridMap.empty((5, 4))
    start, goal = (np.int64(0), np.int32(0)), np.array([4, 3])
    res = S.plan(S.Problem(g, start, goal))
    assert res.path[0] == (0, 0) and type(res.path[0][0]) is int
    assert B.dijkstra_optimal(g, start, goal) == B.dijkstra_optimal(g, (0, 0), (4, 3))


@pytest.mark.parametrize(
    "cell,k",
    [((-1, 0), 1), ((5, 5), 1), ((2.0, 2), 1), ((1, 1, 1), 1),
     ((2, 2), 0), ((2, 2), -1), ((2, 2), 2)],
    ids=repr,
)
def test_successors_at_scale_refuses_what_it_cannot_check(cell, k):
    # (-1, 0) used to yield moves through a wrapped index, (5, 5) and
    # (2.0, 2) let an IndexError escape, (1, 1, 1) was read as (1, 1),
    # k = 0 gave zero-cost self-loops, -1 negative costs, and 2 passed
    with pytest.raises(InvalidProblemError):
        G.successors_at_scale(cell, k, G.GridMap.empty((5, 5)))


# -------------------------------------------------------------- multipliers

# 3.9 and "3" used to plan at scale 3, True at scale 1; inf and nan
# escaped as OverflowError and a bare ValueError
NON_INTEGER_MULTIPLIERS = [3.9, 3.0, "3", True, math.inf, math.nan, None]


@pytest.mark.parametrize("bad", NON_INTEGER_MULTIPLIERS, ids=repr)
def test_non_integer_multipliers_are_refused(bad):
    g = G.GridMap.empty((16, 16))
    doors = [
        lambda: G.ResolutionLadder((1, bad)),
        lambda: S.Problem(g, (1, 1), (7, 7), ladder=(1, bad)),
        lambda: B.wa_union(g, (1, 1), (7, 7), (1, bad)),
        lambda: B.weighted_astar(g, (1, 1), (7, 7), multiplier=bad),
    ]
    for door in doors:
        with pytest.raises(InvalidProblemError, match="multipliers must be integers"):
            door()


def test_ladders_must_be_sequences_of_integers():
    g = G.GridMap.empty((16, 16))
    with pytest.raises(InvalidProblemError, match="multipliers must be integers"):
        S.Problem(g, (1, 1), (7, 7), ladder="13")  # used to plan on (1, 3)
    with pytest.raises(InvalidProblemError, match="not a sequence of multipliers"):
        S.Problem(g, (1, 1), (7, 7), ladder=13)
    with pytest.raises(InvalidProblemError, match="not a sequence of multipliers"):
        B.wa_union(g, (1, 1), (7, 7), None)


def test_numpy_integer_multipliers_are_scales():
    g = G.GridMap.empty((16, 16))
    lad = G.ResolutionLadder((np.int64(1), np.int32(3)))
    assert lad.multipliers == (1, 3) and type(lad.multipliers[1]) is int
    got = B.weighted_astar(g, (1, 1), (7, 7), multiplier=np.int64(3))
    want = B.weighted_astar(g, (1, 1), (7, 7), multiplier=3)
    assert (got.path, got.expansions) == (want.path, want.expansions)


# ----------------------------------------------------------------- timeouts

TIMEOUT_DOORS = {
    "plan": lambda t: S.plan(S.Problem(GRID, START, GOAL, LADDER), S.PlannerConfig(timeout=t)),
    "weighted_astar": lambda t: B.weighted_astar(GRID, START, GOAL, timeout=t),
    "wa_union": lambda t: B.wa_union(GRID, START, GOAL, LADDER, timeout=t),
}

# nan, +-inf, +-0 and any finite float
TIMEOUTS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.mark.parametrize("door", sorted(TIMEOUT_DOORS))
@settings(max_examples=30)
@given(t=TIMEOUTS)
def test_hostile_timeouts(door, t):
    # the baselines used to take nan as no timeout and -1 as an
    # immediate one
    if not t > 0:
        with pytest.raises(InvalidProblemError, match="timeout must be positive"):
            TIMEOUT_DOORS[door](t)
        return
    res = TIMEOUT_DOORS[door](t)
    if res.status != S.STATUS_TIMEOUT:
        _assert_within_bound(res)


NON_REALS = ["1", None, True, 1j]


@pytest.mark.parametrize("bad", NON_REALS, ids=repr)
def test_non_real_timeouts_and_weights_are_refused(bad):
    # strings and None used to escape as TypeError from a comparison, and
    # random_grid took a density of True as 1.0
    doors = [
        *(("timeout", lambda door=door: door(bad)) for door in TIMEOUT_DOORS.values()),
        ("w1", lambda: S.PlannerConfig(w1=bad)),
        ("w2", lambda: S.PlannerConfig(w2=bad)),
        ("w", lambda: B.weighted_astar(GRID, START, GOAL, w=bad)),
        ("w", lambda: B.wa_union(GRID, START, GOAL, LADDER, w=bad)),
        ("density", lambda: syn.random_grid((4, 4), bad, 1)),
    ]
    for name, door in doors:
        with pytest.raises(InvalidProblemError, match=f"^{name} must be a real number"):
            door()


def _int_refusal(name, bad, least=0):
    """The message of grid.check_int's refusal of bad, as a full-match
    pattern."""
    if G.is_integer(bad):
        return f"^{name} must be >= {least}, got {bad}$"
    return f"^{re.escape(f'{name} must be an integer, got {bad!r}')}$"


@pytest.mark.parametrize("bad", [2.7, 2.0, "3", True, None, -1], ids=repr)
def test_planner_seed_must_be_a_non_negative_integer(bad):
    # 2.7, 2.0, "3" and True used to become 2, 2, 3 and 1, None escaped as
    # a bare TypeError, and -1 was taken and then failed inside a dts search
    with pytest.raises(InvalidProblemError, match=_int_refusal("seed", bad)):
        S.PlannerConfig(policy="dts", seed=bad)


@pytest.mark.parametrize("bad", [["dts"], {"dts"}, {"round_robin": 1}], ids=repr)
def test_planner_policy_must_be_a_policy_name(bad):
    # an unhashable policy used to escape as TypeError: unhashable type
    with pytest.raises(ValueError, match="^policy must be one of"):
        S.PlannerConfig(policy=bad)


@pytest.mark.parametrize("bad", [1.5, 2.0, -1, True, "3", None], ids=repr)
def test_random_grid_seed_must_be_a_non_negative_integer(bad):
    # 1.5 used to leak numpy's TypeError, -1 numpy's own ValueError, and
    # None drew a different map on every call; the instance generators
    # did all of that until they took the same check
    doors = [lambda: syn.random_grid((4, 4), 0.2, seed=bad),
             lambda: syn.corridor_instance(bad), lambda: syn.cul_de_sac_instance(bad)]
    for door in doors:
        with pytest.raises(InvalidProblemError, match=_int_refusal("seed", bad)):
            door()


def test_random_grid_takes_numpy_integer_seeds():
    got, want = syn.random_grid((6, 5), 0.3, np.uint16(3)), syn.random_grid((6, 5), 0.3, 3)
    assert np.array_equal(got.blocked, want.blocked)


def test_numpy_integer_seeds_are_stored_as_int():
    config = S.PlannerConfig(policy="dts", seed=np.uint16(5))
    assert type(config.seed) is int and config.seed == 5
    prob = S.Problem(GRID, START, GOAL, LADDER)
    got, want = S.plan(prob, config), S.plan(prob, S.PlannerConfig(policy="dts", seed=5))
    assert (got.path, got.expansions, got.cost) == (want.path, want.expansions, want.cost)


# An 8x8 map with (6, 5) blocked and ladder (1, 3): a query and a config
# that pass their checks, and assignments that would bypass them.
_BLOCKED = np.zeros((8, 8), bool)
_BLOCKED[5, 6] = True
PROBE_PROBLEM = S.Problem(G.GridMap((8, 8), _BLOCKED), (0, 0), (7, 7), ladder=(1, 3))
PROBE_CONFIG = S.PlannerConfig(policy="dts")
PROBES = [
    (PROBE_PROBLEM, "goal", (8, 0)),
    (PROBE_PROBLEM, "goal", (6, 5)),
    (PROBE_PROBLEM, "goal", (7.5, 7)),
    (PROBE_PROBLEM, "start", (-1, 0)),
    (PROBE_PROBLEM, "ladder", (1, 2)),
    (PROBE_PROBLEM, "grid", G.GridMap.empty((4, 4, 4))),
    (PROBE_CONFIG, "w2", 0.5),
    (PROBE_CONFIG, "w1", math.nan),
    (PROBE_CONFIG, "timeout", -1),
    (PROBE_CONFIG, "seed", -1),
]


@pytest.mark.parametrize("obj,name,bad", PROBES, ids=lambda v: repr(v)[:24])
def test_checked_queries_cannot_change(obj, name, bad):
    # these assignments used to plan anyway (exhausted, solved with a
    # bound of 0.5, timeout) or escape as AttributeError/ValueError;
    # replace builds a new instance, and so checks it again
    before = getattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, bad)
    assert getattr(obj, name) is before
    with pytest.raises(InvalidProblemError):
        dataclasses.replace(obj, **{name: bad})
    res = S.plan(PROBE_PROBLEM, PROBE_CONFIG)
    assert res.status == S.STATUS_SOLVED and res.bound == PROBE_CONFIG.w2


def test_replace_keeps_a_checked_query():
    # a good variant takes the same checks: its cells and seed normalised
    problem = dataclasses.replace(PROBE_PROBLEM, goal=np.array([7, 6]), ladder=[1, 3, 5])
    assert problem.goal == (7, 6) and type(problem.goal[0]) is int
    assert problem.ladder == G.ResolutionLadder((1, 3, 5))
    config = dataclasses.replace(PROBE_CONFIG, seed=np.uint16(5))
    assert type(config.seed) is int and config.seed == 5


# what is an integer, and what is a real number, is decided in grid.py only
_RULES = {"is_integer", "numbers.Real"}


def _dotted(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return node.attr if head is None else f"{head}.{node.attr}"
    return None


def test_the_integer_and_real_rules_live_in_grid_only():
    src = Path(__file__).resolve().parent.parent / "src" / "mrastar"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = set()
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = _dotted(node)
                names = {dotted, dotted.rsplit(".", 1)[-1]} if dotted else set()
            elif isinstance(node, ast.ImportFrom):
                names = {f"{node.module}.{a.name}" for a in node.names} | {
                    a.name for a in node.names}
            found += [(path.name, node.lineno, name) for name in sorted(names & _RULES)]
    assert found == []
