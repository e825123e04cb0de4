"""One validation path for every planner: hostile weights, timeouts,
multipliers and endpoints are refused up front with the same
InvalidProblemError."""

import math

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


def _valid(*ws):
    return all(1.0 <= w < math.inf for w in ws)


def _assert_within_bound(res):
    assert res.status == S.STATUS_SOLVED
    assert res.cost <= res.bound * OPT * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(w1=WEIGHTS, w2=WEIGHTS)
def test_plan_hostile_weights(w1, w2):
    if not _valid(w1, w2):
        with pytest.raises(ValueError):
            S.PlannerConfig(w1=w1, w2=w2)
        return
    res = S.plan(S.Problem(GRID, START, GOAL, LADDER), S.PlannerConfig(w1=w1, w2=w2))
    assert res.bound == w2
    _assert_within_bound(res)


@settings(max_examples=40, deadline=None)
@given(w=WEIGHTS)
def test_weighted_astar_hostile_weights(w):
    if not _valid(w):
        with pytest.raises(ValueError):
            B.weighted_astar(GRID, START, GOAL, w=w)
        return
    _assert_within_bound(B.weighted_astar(GRID, START, GOAL, w=w))


@settings(max_examples=40, deadline=None)
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
    return [
        (g2, (3, 3), (7, 7)),  # blocked start
        (g2, (0, 0), (8, 0)),  # goal out of bounds
    ]


@pytest.mark.parametrize("case", range(2))
def test_every_planner_refuses_the_same_way(case):
    query = _bad_queries()[case]
    messages = set()
    for door in FRONT_DOORS.values():
        with pytest.raises(InvalidProblemError) as exc:
            door(*query)
        messages.add(str(exc.value))
    assert len(messages) == 1


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
    with pytest.raises(InvalidProblemError, match="non-integer coordinate"):
        B.dijkstra_field(g, (0, bad))
    assert B.dijkstra_optimal(g, (bad, 0), (4, 3)) == math.inf
    assert B.dijkstra_optimal(g, (0, 0), (4, bad)) == math.inf


def test_numpy_integer_coordinates_are_cells():
    g = G.GridMap.empty((5, 4))
    start, goal = (np.int64(0), np.int32(0)), np.array([4, 3])
    res = S.plan(S.Problem(g, start, goal))
    assert res.path[0] == (0, 0) and type(res.path[0][0]) is int
    assert B.dijkstra_optimal(g, start, goal) == B.dijkstra_optimal(g, (0, 0), (4, 3))
    dist, _ = B.dijkstra_field(g, goal)
    assert math.isclose(dist[0, 0], 3 * math.sqrt(2.0) + 1)


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
@settings(max_examples=30, deadline=None)
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
    # strings and None used to escape as TypeError from a comparison
    doors = [
        *(("timeout", lambda door=door: door(bad)) for door in TIMEOUT_DOORS.values()),
        ("w1", lambda: S.PlannerConfig(w1=bad)),
        ("w2", lambda: S.PlannerConfig(w2=bad)),
        ("w", lambda: B.weighted_astar(GRID, START, GOAL, w=bad)),
        ("w", lambda: B.wa_union(GRID, START, GOAL, LADDER, w=bad)),
    ]
    for name, door in doors:
        with pytest.raises(InvalidProblemError, match=f"^{name} must be a real number"):
            door()
