"""The search core's dense state table and the free list it is reused from.

search.FlatSearch keeps g (cost-to-come, inf while unreached) and closed
(the bitmask of queues that expanded a state, 0 for none) in lists over
flat cell ids.  The pair comes from search._FREE_TABLES, grown to the
map when it is shorter; a run that returns resets the entries at h's
keys and puts the pair back once, and a run that raises keeps it.  The
reference for what the table must compute is oracles.MraSearch and
oracles.FlatSearch, whose state table is a pair of dicts.
"""

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import MrastarError, SearchCorruptionError

import oracles


def free_pairs():
    """The (g, closed) pairs now on the free list, by identity."""
    return [(id(g), id(closed)) for g, closed in S._FREE_TABLES]


def assert_free_list_clean():
    for g, closed in S._FREE_TABLES:
        assert len(g) == len(closed)
        assert g.count(math.inf) == len(g) and closed.count(0) == len(closed)


def test_a_second_run_raises():
    g = G.GridMap.empty((9, 9))
    mra = S.MraSearch(S.Problem(g, (0, 0), (8, 8), ladder=(1, 3)))
    res = mra.run()
    assert res.status == S.STATUS_SOLVED and res.expansions == [8, 9]
    with pytest.raises(MrastarError, match="already run"):
        mra.run()
    flat = S.FlatSearch(g, (0, 0), (8, 8), [(1,)], (1.0,), bound=1.0)
    assert len(flat.run(log_expansions=True).expansion_log) == 8
    with pytest.raises(MrastarError, match="already run"):
        flat.run(log_expansions=True)
    assert flat.expansions == [8] and len(flat.expansion_log) == 8


def _wall(extents, col):
    blocked = np.zeros(tuple(reversed(extents)), bool)
    blocked[..., col] = True
    return G.GridMap(extents, blocked)


@pytest.mark.parametrize("case", ["solved-2d", "solved-3d", "exhausted", "timeout"])
def test_a_returning_run_hands_back_its_pair_reset(case):
    ladder = (1, 3)
    if case == "solved-2d":
        grid, start, goal = G.GridMap.empty((21, 17)), (0, 0), (20, 16)
    elif case == "solved-3d":
        grid, start, goal = G.GridMap.empty((9, 8, 7)), (0, 0, 0), (8, 7, 6)
    elif case == "exhausted":
        grid, start, goal = _wall((16, 16), 8), (2, 2), (13, 13)
    else:
        grid, start, goal = G.GridMap.empty((64, 64)), (0, 0), (63, 63)
    config = S.PlannerConfig(timeout=1e-12 if case == "timeout" else math.inf)
    search = S.MraSearch(S.Problem(grid, start, goal, ladder=ladder), config)
    pair = (id(search.g), id(search.closed))
    assert pair not in free_pairs()
    res = search.run()
    assert res.status == case.split("-")[0]
    if case != "timeout":
        assert sum(res.expansions) > 0 and res.generated > 2
    assert search.g is None and search.closed is None
    assert free_pairs().count(pair) == 1
    assert_free_list_clean()


class Halt(Exception):
    """Stops a run at its second OpenList.pop."""


def test_a_raising_run_and_result_keep_the_pair():
    grid = G.GridMap.empty((9, 9))
    # halted between two expansions
    search = S.MraSearch(S.Problem(grid, (0, 0), (8, 8), ladder=(1, 3)))
    before = free_pairs()
    pop, pops = S.OpenList.pop, itertools.count()

    def halting(self):
        if next(pops) == 1:
            raise Halt
        return pop(self)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(S.OpenList, "pop", halting)
        with pytest.raises(Halt):
            search.run()
    assert free_pairs() == before and search.g is not None
    assert search.closed[search.start_id] == 1
    # drained with the goal reached but unclaimed
    search = S.MraSearch(S.Problem(_wall((9, 9), 4), (0, 0), (8, 8)))
    search.g[search.goal_id] = 1e300
    before = free_pairs()
    with pytest.raises(SearchCorruptionError, match="drained"):
        search.run()
    assert free_pairs() == before and search.g[search.goal_id] == 1e300
    # a broken chain at the claim: the exit raises before it resets the pair
    search = S.MraSearch(S.Problem(grid, (0, 0), (4, 4)))
    before = free_pairs()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(S, "walk_chain", lambda grid, bp, start, goal: G.walk_chain(grid, {}, start, goal))
        with pytest.raises(SearchCorruptionError, match="broken backpointer chain"):
            search.run()
    assert free_pairs() == before and search.g[search.goal_id] < math.inf


def test_live_searches_hold_distinct_lists():
    grid = G.GridMap.empty((12, 12))
    a, b = (S.MraSearch(S.Problem(grid, (0, 0), (11, 11), ladder=(1, 3))) for _ in range(2))
    assert a.g is not b.g and a.closed is not b.closed
    pairs = [(id(s.g), id(s.closed)) for s in (a, b)]
    lists = {i for pair in pairs for i in pair}
    a.run()
    b.run()
    assert all(free_pairs().count(pair) == 1 for pair in pairs)
    # a third search takes one of the two pairs back rather than making one
    c = S.MraSearch(S.Problem(grid, (0, 0), (11, 11), ladder=(1, 3)))
    assert {id(c.g), id(c.closed)} <= lists


def _fields(res):
    out = dataclasses.asdict(res)
    del out["wall_time"]
    out["cost"] = float(out["cost"]).hex()
    return out


def test_grown_pairs_match_the_reference(monkeypatch):
    # Maps taken in order of size grow the one pair three times; then
    # small and large maps alternate, so that small queries run on a
    # prefix of a longer pair.  Each query runs MRA* (both policies) and
    # weighted A* on the dense table and on the reference's dicts.
    monkeypatch.setattr(S, "_FREE_TABLES", [])
    maps = [
        syn.random_grid((12, 12), 0.3, seed=1),
        syn.random_grid((6, 6, 6), 0.3, seed=2),
        syn.random_grid((40, 40), 0.3, seed=3),
        syn.random_grid((12, 12, 12), 0.3, seed=4),
    ]
    order = [0, 1, 2, 3, 0, 3, 1, 2, 0, 1]
    configs = [S.PlannerConfig(w1=3.0, w2=3.0),
               S.PlannerConfig(w1=2.0, w2=1.5, policy="dts", seed=7)]
    rng = np.random.default_rng(5)
    lengths, statuses = [], set()
    for n in order:
        grid = maps[n]
        free = np.flatnonzero(~grid.flat_blocked)
        for a, b in rng.choice(free, size=(3, 2)):
            start, goal = grid.cell_of(int(a)), grid.cell_of(int(b))
            problem = S.Problem(grid, start, goal, ladder=(1, 3, 5))
            for config in configs:
                search = S.MraSearch(problem, config)
                lengths.append(len(search.g))
                new = _fields(search.run(log_expansions=True))
                old = _fields(oracles.MraSearch(problem, config).run(log_expansions=True))
                assert new == old, (n, start, goal, config)
                statuses.add(new["status"])
            flat = S.FlatSearch(grid, start, goal, [(1,)], (1.5,), bound=1.5)
            new = _fields(flat.run(log_expansions=True))
            old = oracles.FlatSearch(grid, start, goal, (1,), (1.5,), 1.5)
            assert new == _fields(old.run(log_expansions=True)), (n, start, goal)
    assert statuses == {S.STATUS_SOLVED, S.STATUS_EXHAUSTED}
    assert sorted(set(lengths)) == [144, 216, 1600, 1728]
    assert lengths[-1] == 1728 and len(S._FREE_TABLES) == 1
    assert_free_list_clean()


def test_threads_share_the_free_list():
    # several threads plan at once, with a short switch interval: each
    # plan equals the one planned alone, and no pair is lost or shared
    grid = syn.random_grid((24, 24), 0.2, seed=9)
    free = np.flatnonzero(~grid.flat_blocked)
    rng = np.random.default_rng(9)
    problems = [S.Problem(grid, grid.cell_of(int(a)), grid.cell_of(int(b)), ladder=(1, 3))
                for a, b in rng.choice(free, size=(8, 2))]
    want = [_fields(S.plan(p)) for p in problems]
    errors = []

    def worker():
        try:
            for _ in range(10):
                for p, w in zip(problems, want):
                    assert _fields(S.plan(p)) == w
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and not errors
    ids = [i for pair in free_pairs() for i in pair]
    assert len(ids) == len(set(ids))
    assert_free_list_clean()
