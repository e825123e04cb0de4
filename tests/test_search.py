"""Planner core: keys, deadline, expansion semantics, full plan() behaviour."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrastar import baselines as B
from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError, SearchCorruptionError
from mrastar.kernels import SQRT2, STEP
from mrastar.policies import POLICIES

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
    h = G.heuristic((10, 10), (40, 30))
    assert [ol.min_key() for ol in search.opens] == [h, 2.5 * h, 2.5 * h]
    # a start off the 3-sublattice stays out of that queue
    off = S.MraSearch(S.Problem(g, (3, 3), (40, 30), ladder=G.ResolutionLadder((1, 3, 7))))
    h = G.heuristic((3, 3), (40, 30))
    assert [ol.min_key() for ol in off.opens] == [h, math.inf, 3.0 * h]


# --------------------------------------------------------------- deadline


def test_check_deadline_cadence(monkeypatch):
    # run reads time.perf_counter for t0 and for wall_time and, under a
    # finite timeout only, before expansions 0, 1000, 2000, ...; it times
    # out at the first of those reads past t0 + timeout
    blocked = np.zeros((50, 60), bool)
    blocked[:, 45] = True  # 45 * 50 cells reachable from (0, 0), the goal not among them
    grid = G.GridMap((60, 50), blocked)

    def run(timeout, late_from):
        reads = []

        def clock():  # 0.0 until read number late_from, then 11.0
            reads.append(None)
            return 0.0 if len(reads) < late_from else 11.0

        with monkeypatch.context() as m:
            m.setattr(S.time, "perf_counter", clock)
            res = S.plan(S.Problem(grid, (0, 0), (59, 49)), S.PlannerConfig(timeout=timeout))
        return res, len(reads)

    res, reads = run(math.inf, late_from=1)
    assert (res.status, res.expansions, reads) == (S.STATUS_EXHAUSTED, [2250], 2)
    res, reads = run(10.0, late_from=100)
    assert (res.status, res.expansions, reads) == (S.STATUS_EXHAUSTED, [2250], 5)
    res, reads = run(10.0, late_from=3)
    assert (res.status, res.expansions, reads) == (S.STATUS_TIMEOUT, [1000], 4)
    assert res.wall_time == 11.0 and res.path == [] and res.cost == math.inf


# ----------------------------------------------------------------- config


def test_config_validation():
    cfg = S.PlannerConfig()
    assert cfg.w1 == 3.0 and cfg.w2 == 3.0 and cfg.policy == "round_robin"
    for bad in [dict(w1=0.5), dict(w2=0.0), dict(policy="greedy"), dict(timeout=0)]:
        with pytest.raises(ValueError):
            S.PlannerConfig(**bad)


def test_unknown_policy_is_an_invalid_problem():
    # PlannerConfig is the one check of a policy name
    with pytest.raises(InvalidProblemError, match="^policy must be one of"):
        S.PlannerConfig(policy="greedy")


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policy_is_built_only_for_coarse_queues(policy):
    g = G.GridMap.empty((9, 9))
    config = S.PlannerConfig(policy=policy, seed=3)
    flat = S.MraSearch(S.Problem(g, (0, 0), (8, 8)), config)
    assert flat.policy is None  # a one-level ladder has no coarse queue to pick
    assert flat.run().status == S.STATUS_SOLVED
    mra = S.MraSearch(S.Problem(g, (0, 0), (8, 8), ladder=[1, 3, 5]), config)
    assert type(mra.policy) is POLICIES[policy]


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


# ------------------------------------------------- expansion in the loop


def test_new_states_initialized_unreached():
    g = G.GridMap.empty((9, 9))
    search = S.MraSearch(S.Problem(g, (0, 0), (8, 8)))
    assert search.g[search.goal_id] == math.inf
    assert search.goal_id not in search.bp
    assert search.g[search.start_id] == 0.0
    assert search.generated == 2  # start and goal only
    fid = g.flat_index((4, 4))
    assert search.g[fid] == math.inf and fid not in search.h


class Halt(Exception):
    """Stops a run between two expansions (see run_expansions)."""


def run_expansions(search, n):
    """Run search, logging expansions, until it has expanded n states:
    the loop's (n + 1)-th OpenList.pop raises Halt before popping."""
    pop = S.OpenList.pop
    pops = itertools.count()

    def halting(self):
        if next(pops) == n:
            raise Halt
        return pop(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(S.OpenList, "pop", halting)
        with pytest.raises(Halt):
            search.run(log_expansions=True)


class Picks:
    """A policy that picks queue i whenever it is nonempty."""

    feedback = False

    def __init__(self, i):
        self.i = i

    def choose_queue(self, nonempty):
        return self.i if self.i in nonempty else nonempty[0]

    def update(self, i, top_h):
        pass


def heap_ids(ol):
    """Every state with an entry in ol's heap, live or superseded."""
    return {entry[2] for entry in ol._heap}


def test_expand_relaxes_into_all_open_spaces():
    # a fully coincident successor lands in all three queues with the
    # anchor key g+h and the inflated key g+w1*h elsewhere
    lad = G.ResolutionLadder((1, 7, 21))
    g = G.GridMap.empty((106, 106))
    prob = S.Problem(g, (10, 10), (94, 94), ladder=lad)
    cfg = S.PlannerConfig(w1=3.0, w2=3.0)
    search = S.MraSearch(prob, cfg)
    search.policy = Picks(2)
    run_expansions(search, 1)
    assert search.expansion_log == [(2, (10, 10))]
    succ = (31, 31)  # on the 7- and 21-sublattices
    sid = g.flat_index(succ)
    assert search.g[sid] == 21 * SQRT2 and search.bp[sid] == search.start_id
    h = G.heuristic(succ, (94, 94))
    assert search.h[sid] == h
    for j, w in enumerate((1.0, cfg.w1, cfg.w1)):
        ol = search.opens[j]
        assert sid in ol
        while ol.peek() != sid:  # drain down to sid; its key is then the minimum
            ol.pop()
        assert ol.min_key() == search.g[sid] + w * h
        assert ol.pop() == sid
    assert search.expansions == [0, 0, 1]


def _one_queue_searches(g, start, goal):
    """An MRA* search with the unit ladder and a baseline's core (no
    queue masks) on the same query."""
    return [
        S.MraSearch(S.Problem(g, start, goal)),
        S.FlatSearch(g, start, goal, [(1,)], (1.0,), bound=1.0),
    ]


def test_closed_queue_not_reinserted():
    lad = G.ResolutionLadder((1, 3))
    g = G.GridMap.empty((9, 9))
    search = S.MraSearch(S.Problem(g, (0, 0), (8, 8), ladder=lad))
    sid = g.flat_index((1, 1))
    search.closed[sid] = 1  # pretend queue 0 already expanded it
    run_expansions(search, 1)
    assert search.expansion_log == [(0, (0, 0))]
    assert search.g[sid] == SQRT2  # g/bp still update
    assert search.bp[sid] == search.start_id
    assert sid not in search.opens[0] and sid not in heap_ids(search.opens[0])
    assert sid in search.opens[1]
    assert search.closed[sid] == 1
    for search in _one_queue_searches(g, (0, 0), (8, 8)):
        search.closed[sid] = 1
        run_expansions(search, 1)
        assert search.g[sid] == SQRT2 and search.bp[sid] == search.start_id
        assert sid not in search.opens[0] and sid not in heap_ids(search.opens[0])


def test_double_expansion_rejected():
    g = G.GridMap.empty((9, 9))
    for search in _one_queue_searches(g, (0, 0), (8, 8)):
        run_expansions(search, 1)
        assert search.closed[search.start_id] == 1
    for search in _one_queue_searches(g, (0, 0), (8, 8)):
        search.closed[search.start_id] = 1  # the start was closed before its pop
        with pytest.raises(SearchCorruptionError, match="expanded twice by queue 0"):
            search.run()
        assert search.expansions == [0]


def test_no_improvement_no_touch():
    g = G.GridMap.empty((9, 9))
    sid = g.flat_index((1, 1))
    for search in _one_queue_searches(g, (0, 0), (8, 8)):
        search.g[sid] = 0.1  # better than anything a relaxation could offer
        search.bp[sid] = -7
        search.h[sid] = 9.0
        run_expansions(search, 1)
        assert search.expansion_log == [(0, (0, 0))]
        assert search.g[sid] == 0.1 and search.bp[sid] == -7 and search.h[sid] == 9.0
        assert sid not in search.opens[0] and sid not in heap_ids(search.opens[0])
        # the other two moves improved and entered the anchor
        improved = {g.flat_index((1, 0)), g.flat_index((0, 1))}
        assert heap_ids(search.opens[0]) == improved
        assert search.generated == 5  # start, goal, sid and the improved two


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


class RecordingHeap(list):
    """An open list's heap that records the key of each live top read
    through heap[0], as the loop reads the anchor's best key."""

    def __init__(self, ol, probes):
        super().__init__(ol._heap)
        self.live, self.probes = ol._live, probes

    def __getitem__(self, k):
        entry = super().__getitem__(k)
        if k == 0 and self.live.get(entry[2]) is entry:
            self.probes.append(entry[0])
        return entry


def test_anchor_min_key_never_exceeds_optimal_cost():
    # the quantity the suboptimality bound rests on: while the goal is
    # unclaimed the anchor's best key stays below the true optimum.  The
    # loop reads the anchor's best key once per iteration, from the top
    # of its heap; the recording heap records those reads.
    rng = np.random.default_rng(22)
    for _ in range(6):
        g = random_map(rng, (32, 32), 0.3)
        start, goal = connected_free_pair(g, rng)
        probes = []
        search = S.MraSearch(
            S.Problem(g, start, goal, ladder=[1, 7]), S.PlannerConfig(w1=5.0, w2=2.0)
        )
        anchor = search.opens[0]
        anchor._heap = RecordingHeap(anchor, probes)
        res = search.run()
        assert len(probes) == sum(res.expansions) + 1
        assert res.status == S.STATUS_SOLVED
        ref = oracles.reference_distances(g, start)[g.flat_index(goal)]
        assert all(mk0 <= ref + 1e-9 for mk0 in probes[:-1])
        assert res.cost <= 2.0 * ref + 1e-9


@pytest.mark.parametrize("extents,density,ladder,seed", [
    ((64, 57), 0.3, (1, 7, 21), 1),
    ((33, 40), 0.45, (1, 3, 9), 2),
    ((16, 13, 11), 0.25, (1, 3, 9), 3),
    ((9, 9, 9), 0.4, (1, 3), 4),
    # x the shortest axis, then the longest: the flat id's x/y/z
    # decoding is checked both ways round
    ((3, 8, 11), 0.2, (1, 3), 5),
    ((7, 6, 5), 0.2, (1, 3), 6),
], ids=["2d", "2d-dense", "3d", "3d-dense", "3d-x-shortest", "3d-x-longest"])
def test_every_h_entry_is_flat_heuristic(monkeypatch, extents, density, ladder, seed):
    # FlatSearch keys its start with grid.heuristic and run computes a
    # new state's h inline; each entry of a finished run, solved or
    # exhausted, is heuristic's float of the state's cell and the goal
    runs = []

    class Recording(S.FlatSearch):
        def run(self, log_expansions=False):
            runs.append(self)
            return super().run(log_expansions)

    monkeypatch.setattr(B, "FlatSearch", Recording)
    grid = syn.random_grid(extents, density, seed=seed)
    rng = np.random.default_rng(seed)
    free = np.flatnonzero(~grid.flat_blocked)
    lad = G.ResolutionLadder(ladder)
    checked = 0
    for a, b in rng.choice(free, size=(6, 2)):
        start, goal = grid.cell_of(int(a)), grid.cell_of(int(b))
        search = S.MraSearch(S.Problem(grid, start, goal, lad))
        search.run()
        runs.append(search)
        B.weighted_astar(grid, start, goal, w=3.0)
        B.wa_union(grid, start, goal, lad, w=2.0)
        assert len(runs) == 3
        want = {sid: G.heuristic(grid.cell_of(sid), goal).hex() for run in runs for sid in run.h}
        for run in runs:
            assert [v.hex() for v in run.h.values()] == [want[sid] for sid in run.h]
            checked += len(run.h)
        runs.clear()
    assert checked > 300


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
    # a solved result walks bp back from the goal (grid.walk_chain): a
    # cycle, and a walk that leaves bp, are each refused
    assert G.walk_chain(g, search.bp, search.start_id, search.goal_id) == (res.path, res.cost)
    search.bp[search.goal_id] = search.goal_id
    with pytest.raises(SearchCorruptionError, match="broken backpointer chain"):
        G.walk_chain(g, search.bp, search.start_id, search.goal_id)
    del search.bp[search.goal_id]
    with pytest.raises(SearchCorruptionError, match="broken backpointer chain"):
        G.walk_chain(g, search.bp, search.start_id, search.goal_id)


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


# ------------------------------------------------ generative scheduler property

_EXTENTS = st.one_of(st.lists(st.integers(1, 40), min_size=2, max_size=2),
                     st.lists(st.integers(1, 9), min_size=3, max_size=3))
# zero to three odd coarse levels, from 3 to 21, weighted toward the
# small ones that leave coarse moves: nested or not, some wider than
# every map drawn
_COARSE = st.sampled_from([3, 2, 1, 0]).flatmap(lambda n: st.lists(
    st.one_of(st.integers(1, 3), st.integers(1, 10)).map(lambda m: 2 * m + 1),
    min_size=n, max_size=n, unique=True))


@settings(max_examples=300)
@given(
    extents=_EXTENTS,
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
    coarse=_COARSE,
    policy=st.sampled_from(sorted(POLICIES)),
    policy_seed=st.integers(0, 2**64),
    w1=st.floats(1.0, 10.0),
    w2=st.floats(1.0, 10.0),
    ends=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    level=st.sampled_from([3, 2, 1, 0]),
)
def test_plan_properties(extents, density, seed, coarse, policy, policy_seed, w1, w2,
                         ends, level):
    # MRA* is resolution-complete and bounded-suboptimal for any ladder,
    # policy and weights, w1 > w2 (the gate-blocked regime) included.
    # Both endpoints lie on the sublattice of one ladder level when free
    # cells lie there, so that the coarse queues do work in some examples.
    grid = syn.random_grid(extents, density, seed)
    scales = (1, *sorted(coarse))
    free = [grid.cell_of(int(v)) for v in np.flatnonzero(~grid.flat_blocked)]
    assume(free)
    on = [c for c in free if G.coincides(c, scales[min(level, len(scales) - 1)])] or free
    start, goal = (on[e % len(on)] for e in ends)
    problem = S.Problem(grid, start, goal, ladder=scales)
    config = S.PlannerConfig(w1=w1, w2=w2, policy=policy, seed=policy_seed)
    res = S.plan(problem, config, log_expansions=True)

    labels = G.fine_components(grid).ravel()
    connected = labels[grid.flat_index(start)] == labels[grid.flat_index(goal)]
    assert res.status == (S.STATUS_SOLVED if connected else S.STATUS_EXHAUSTED)
    if connected:
        assert res.cost <= w2 * B.dijkstra_optimal(grid, start, goal) * (1 + 1e-9)
        assert res.cost == G.path_cost(res.path)
        assert res.path[0] == start and res.path[-1] == goal
        assert all(G.edge_valid(a, b, grid) for a, b in zip(res.path, res.path[1:]))
    log = res.expansion_log
    assert len(set(log)) == len(log) == sum(res.expansions)
    again = S.plan(problem, config, log_expansions=True)
    assert dataclasses.replace(again, wall_time=0.0) == dataclasses.replace(res, wall_time=0.0)
