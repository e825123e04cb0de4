"""Planner core: keys, deadline, expansion semantics, full plan() behaviour."""

import dataclasses
import math

import numpy as np
import pytest

from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError, SearchCorruptionError
from mrastar.kernels import SQRT2, STEP

import oracles


def random_map(rng, extents, density):
    shape = tuple(reversed(extents))
    return G.GridMap(extents, rng.random(shape) < density)


def connected_free_pair(grid, rng):
    labels = G.fine_components(grid).ravel()
    best = np.bincount(labels[labels >= 0]).argmax()
    ids = np.flatnonzero(labels == best)
    a, b = rng.choice(ids, size=2, replace=False)
    return grid.cell_of(int(a)), grid.cell_of(int(b))


# ------------------------------------------------------------------- keys


def test_start_keys_per_queue():
    # the start enters each queue whose sublattice holds it, keyed g + h
    # in the anchor and g + w1*h elsewhere (g = 0)
    g = G.GridMap.empty((43, 43))
    prob = S.Problem(g, (10, 10), (40, 30), ladder=G.ResolutionLadder((1, 3, 7)))
    search = S.MraSearch(prob, S.PlannerConfig(w1=2.5, w2=3.0))
    h = G.heuristic((10, 10), (40, 30), "octile")
    assert [ol.min_key() for ol in search.opens] == [h, 2.5 * h, 2.5 * h]
    # a start off the 3-sublattice stays out of that queue
    off = S.MraSearch(S.Problem(g, (3, 3), (40, 30), ladder=G.ResolutionLadder((1, 3, 7))))
    h = G.heuristic((3, 3), (40, 30), "octile")
    assert [ol.min_key() for ol in off.opens] == [h, math.inf, 3.0 * h]


# --------------------------------------------------------------- deadline


def test_check_deadline_cadence():
    always_late = lambda: 1e9
    assert not S.check_deadline(999, 0.0, 120.0, now_fn=always_late)
    assert S.check_deadline(1000, 0.0, 120.0, now_fn=always_late)
    assert S.check_deadline(0, 0.0, 120.0, now_fn=lambda: 121.0)
    assert not S.check_deadline(0, 0.0, 120.0, now_fn=lambda: 119.0)
    assert not S.check_deadline(0, 0.0, math.inf, now_fn=always_late)


# ----------------------------------------------------------------- config


def test_config_validation():
    cfg = S.PlannerConfig()
    assert cfg.w1 == 3.0 and cfg.w2 == 3.0 and cfg.policy == "round_robin"
    for bad in [dict(w1=0.5), dict(w2=0.0), dict(policy="greedy"), dict(timeout=0)]:
        with pytest.raises(ValueError):
            S.PlannerConfig(**bad)


def test_problem_validation():
    g = G.GridMap.empty((8, 8))
    blocked = np.zeros((8, 8), bool)
    blocked[3, 3] = True
    gb = G.GridMap((8, 8), blocked)
    with pytest.raises(InvalidProblemError):
        S.Problem(gb, (3, 3), (7, 7))
    with pytest.raises(InvalidProblemError):
        S.Problem(g, (0, 0), (8, 0))
    # plain sequences are accepted for the ladder
    assert len(S.Problem(g, (0, 0), (7, 7), ladder=[1, 3]).ladder) == 2


# ----------------------------------------------------------------- expand


def test_new_states_initialized_unreached():
    g = G.GridMap.empty((9, 9))
    search = S.MraSearch(S.Problem(g, (0, 0), (8, 8)))
    assert search.g[search.goal_id] == math.inf
    assert search.goal_id not in search.bp
    assert search.g[search.start_id] == 0.0
    assert search.generated == 2  # start and goal only
    assert g.flat_index((4, 4)) not in search.g


def test_expand_relaxes_into_all_open_spaces():
    # a fully coincident successor lands in all three queues with the
    # anchor key g+h and the inflated key g+w1*h elsewhere
    lad = G.ResolutionLadder((1, 7, 21))
    g = G.GridMap.empty((106, 106))
    prob = S.Problem(g, (10, 10), (94, 94), ladder=lad)
    cfg = S.PlannerConfig(w1=3.0, w2=3.0)
    search = S.MraSearch(prob, cfg)
    search.expand(search.start_id, 2, [search.tables[2]])
    succ = (31, 31)  # on the 7- and 21-sublattices
    sid = g.flat_index(succ)
    assert search.g[sid] == 21 * SQRT2 and search.bp[sid] == search.start_id
    h = G.heuristic(succ, (94, 94), "octile")
    assert search.h[sid] == h
    for j, w in enumerate((1.0, cfg.w1, cfg.w1)):
        ol = search.opens[j]
        assert sid in ol
        while ol.peek() != sid:  # drain down to sid; its key is then the minimum
            ol.pop()
        assert ol.min_key() == search.g[sid] + w * h
        assert ol.pop() == sid
    assert search.expansions == [0, 0, 1]


def test_closed_queue_not_reinserted():
    lad = G.ResolutionLadder((1, 3))
    g = G.GridMap.empty((9, 9))
    search = S.MraSearch(S.Problem(g, (0, 0), (8, 8), ladder=lad))
    sid = g.flat_index((1, 1))
    search.closed[sid] = 1  # pretend queue 0 already expanded it
    search.expand(search.start_id, 0, [search.tables[0]])
    assert search.g[sid] == SQRT2  # g/bp still update
    assert search.bp[sid] == search.start_id
    assert sid not in search.opens[0]
    assert sid in search.opens[1]


def test_double_expansion_rejected():
    g = G.GridMap.empty((9, 9))
    search = S.MraSearch(S.Problem(g, (0, 0), (8, 8)))
    search.expand(search.start_id, 0, [search.tables[0]])
    assert search.closed[search.start_id] == 1
    with pytest.raises(SearchCorruptionError):
        search.expand(search.start_id, 0, [search.tables[0]])


def test_no_improvement_no_touch(monkeypatch):
    g = G.GridMap.empty((9, 9))
    search = S.MraSearch(S.Problem(g, (0, 0), (8, 8)))
    search.expand(search.start_id, 0, [search.tables[0]])
    sid = g.flat_index((1, 1))
    search.g[sid] = 0.1  # better than anything a re-relaxation could offer
    search.bp[sid] = -7
    generated = search.generated
    search.closed[search.start_id] = 0
    inserts = []
    monkeypatch.setattr(
        S.OpenList, "insert_or_update", lambda self, *args: inserts.append(args)
    )
    search.expand(search.start_id, 0, [search.tables[0]])
    assert search.g[sid] == 0.1 and search.bp[sid] == -7
    assert inserts == []
    assert search.generated == generated


# ------------------------------------------------------------------- plan


def test_goal_equals_start():
    g = G.GridMap.empty((5, 5))
    res = S.plan(S.Problem(g, (2, 2), (2, 2)))
    assert res.status == S.STATUS_SOLVED
    assert res.path == [(2, 2)] and res.cost == 0.0


def test_anchor_only_matches_dijkstra():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_map(rng, (24, 24), 0.3)
        start, goal = connected_free_pair(g, rng)
        res = S.plan(S.Problem(g, start, goal))
        assert res.status == S.STATUS_SOLVED
        ref = oracles.reference_distances(g, start)[g.flat_index(goal)]
        assert math.isclose(res.cost, ref, rel_tol=1e-9)
        assert res.bound == S.PlannerConfig().w2


def test_bound_holds_on_random_maps():
    rng = np.random.default_rng(18)
    cfg = S.PlannerConfig(w1=3.0, w2=3.0)
    lad = G.ResolutionLadder((1, 7, 21))
    for _ in range(20):
        g = random_map(rng, (64, 64), 0.3)
        start, goal = connected_free_pair(g, rng)
        res = S.plan(S.Problem(g, start, goal, ladder=lad), cfg)
        assert res.status == S.STATUS_SOLVED
        ref = oracles.reference_distances(g, start)[g.flat_index(goal)]
        assert res.cost <= 3.0 * ref + 1e-9


def test_narrow_corridor_solved_with_ladder():
    for seed in range(3):
        grid, start, goal = syn.corridor_instance(seed)
        res = S.plan(S.Problem(grid, start, goal, ladder=[1, 7, 21]))
        assert res.status == S.STATUS_SOLVED


def test_path_mixes_resolutions():
    grid, start, goal = syn.corridor_instance(0)
    res = S.plan(S.Problem(grid, start, goal, ladder=[1, 7]))
    ks = {G.edge_decomposition(u, v)[0] for u, v in zip(res.path, res.path[1:])}
    assert ks == {1, 7}


def test_path_validity_and_cost_resummation():
    rng = np.random.default_rng(19)
    lad = G.ResolutionLadder((1, 7, 21))
    for _ in range(8):
        g = random_map(rng, (48, 48), 0.25)
        start, goal = connected_free_pair(g, rng)
        res = S.plan(S.Problem(g, start, goal, ladder=lad))
        assert res.status == S.STATUS_SOLVED
        assert res.path[0] == start and res.path[-1] == goal
        naive = 0.0
        for u, v in zip(res.path, res.path[1:]):
            assert G.edge_valid(u, v, g)
            k, m = G.edge_decomposition(u, v)
            assert k in lad.multipliers
            naive += k * STEP[m]
        assert math.isclose(res.cost, naive, rel_tol=1e-9)


def test_timeout_status():
    g = G.GridMap.empty((64, 64))
    res = S.plan(S.Problem(g, (0, 0), (63, 63)), S.PlannerConfig(timeout=1e-12))
    assert res.status == S.STATUS_TIMEOUT
    assert res.path == [] and res.cost == math.inf
    assert res.winning_queue is None and res.bound is None


def test_exhausted_when_disconnected():
    blocked = np.zeros((16, 16), bool)
    blocked[:, 8] = True  # full-height wall
    g = G.GridMap((16, 16), blocked)
    res = S.plan(S.Problem(g, (2, 2), (13, 13), ladder=[1, 3]))
    assert res.status == S.STATUS_EXHAUSTED
    assert res.path == [] and res.cost == math.inf
    assert sum(res.expansions) > 0


@pytest.mark.parametrize("policy", ["round_robin", "dts"])
def test_determinism(policy):
    rng = np.random.default_rng(20)
    g = random_map(rng, (48, 48), 0.3)
    start, goal = connected_free_pair(g, rng)
    prob = S.Problem(g, start, goal, ladder=[1, 7, 21])
    cfg = S.PlannerConfig(policy=policy, seed=42)
    a = S.plan(prob, cfg, log_expansions=True)
    b = S.plan(prob, dataclasses.replace(cfg), log_expansions=True)
    assert a.status == b.status
    assert a.path == b.path
    assert a.cost == b.cost  # bitwise
    assert a.expansions == b.expansions
    assert a.generated == b.generated
    assert a.winning_queue == b.winning_queue
    assert a.expansion_log == b.expansion_log


def test_each_state_expanded_once_per_queue():
    rng = np.random.default_rng(21)
    g = random_map(rng, (48, 48), 0.3)
    start, goal = connected_free_pair(g, rng)
    res = S.plan(
        S.Problem(g, start, goal, ladder=[1, 7, 21]),
        S.PlannerConfig(policy="dts", seed=1),
        log_expansions=True,
    )
    assert len(res.expansion_log) == len(set(res.expansion_log))
    assert len(res.expansion_log) == sum(res.expansions)
    per_queue = [0] * 3
    for i, _ in res.expansion_log:
        per_queue[i] += 1
    assert per_queue == res.expansions


def test_anchor_min_key_never_exceeds_optimal_cost(monkeypatch):
    # the quantity the suboptimality bound rests on: while the goal is
    # unclaimed the anchor's best key stays below the true optimum.  The
    # loop reads the anchor's min key once per iteration; the patch
    # records those reads.
    rng = np.random.default_rng(22)
    min_key = S.OpenList.min_key
    for _ in range(6):
        g = random_map(rng, (32, 32), 0.3)
        start, goal = connected_free_pair(g, rng)
        probes = []
        search = S.MraSearch(
            S.Problem(g, start, goal, ladder=[1, 7]), S.PlannerConfig(w1=5.0, w2=2.0)
        )

        def recording(self):
            key = min_key(self)
            if self is search.opens[0]:
                probes.append(key)
            return key

        monkeypatch.setattr(S.OpenList, "min_key", recording)
        res = search.run()
        monkeypatch.undo()
        assert len(probes) == sum(res.expansions) + 1
        assert res.status == S.STATUS_SOLVED
        ref = oracles.reference_distances(g, start)[g.flat_index(goal)]
        assert all(mk0 <= ref + 1e-9 for mk0 in probes[:-1])
        assert res.cost <= 2.0 * ref + 1e-9


def test_start_inserted_into_coinciding_queues_only():
    lad = G.ResolutionLadder((1, 7, 21))
    g = G.GridMap.empty((64, 64))
    search = S.MraSearch(S.Problem(g, (0, 0), (31, 31), ladder=lad))
    assert search.start_id in search.opens[0]
    assert search.start_id not in search.opens[1]
    assert search.start_id not in search.opens[2]
    search2 = S.MraSearch(S.Problem(g, (10, 10), (31, 31), ladder=lad))
    assert all(search2.start_id in search2.opens[j] for j in range(3))


def test_reconstruct_detects_corruption():
    g = G.GridMap.empty((9, 9))
    search = S.MraSearch(S.Problem(g, (0, 0), (4, 4)))
    res = search.run()
    assert res.status == S.STATUS_SOLVED
    search.bp[search.goal_id] = search.goal_id
    with pytest.raises(SearchCorruptionError):
        search.reconstruct_path()


def test_drained_queues_with_a_reached_goal_are_corruption():
    # unreachable in a sound search: the goal, once reached, sits in the
    # anchor keyed g(goal) and is claimed before it can be popped
    blocked = np.zeros((9, 9), bool)
    blocked[:, 4] = True
    g = G.GridMap((9, 9), blocked)
    assert S.MraSearch(S.Problem(g, (0, 0), (8, 8))).run().status == S.STATUS_EXHAUSTED
    search = S.MraSearch(S.Problem(g, (0, 0), (8, 8)))
    search.g[search.goal_id] = 1e300  # finite, above every key: never claimed
    with pytest.raises(SearchCorruptionError, match="drained"):
        search.run()


def test_wa_like_single_ladder_weighted_is_still_bounded():
    # inflating w1 never breaks the w2 bound because only w2 gates claims
    rng = np.random.default_rng(23)
    g = random_map(rng, (40, 40), 0.3)
    start, goal = connected_free_pair(g, rng)
    ref = oracles.reference_distances(g, start)[g.flat_index(goal)]
    for w1 in [1.0, 2.0, 10.0]:
        res = S.plan(
            S.Problem(g, start, goal, ladder=[1, 7]),
            S.PlannerConfig(w1=w1, w2=1.5),
        )
        assert res.status == S.STATUS_SOLVED
        assert res.cost <= 1.5 * ref + 1e-9
