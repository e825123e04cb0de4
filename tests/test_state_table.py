"""The search core's dense state table and the free list it is reused from.

search.FlatSearch keeps g (cost-to-come, inf while unreached) and closed
(the bitmask of queues that expanded a state, 0 for none) in lists over
flat cell ids.  The pair comes from search._FREE_TABLES, grown to the
map when it is shorter; a run that returns resets the entries at h's
keys and puts the pair back once, and a run that raises keeps it.  The
exact oracle, baselines.dijkstra_optimal, borrows a pair by the same
rule for its A*'s dist and done, and resets it at its bp's keys and the
start.  The reference for what the table must compute is
oracles.MraSearch and oracles.FlatSearch, whose state table is a pair
of dicts.
"""

import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from mrastar import baselines as B
from mrastar import bench
from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import MrastarError, SearchCorruptionError
from mrastar.kernels import SQRT2

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


# ------------------------------------------------------------ the oracle


@pytest.mark.parametrize("case", ["reached", "other-component", "start-is-goal", "blocked"])
def test_the_oracle_hands_back_the_pair_it_borrows(monkeypatch, case):
    # a pair as long as the map, and a shorter one on top, which a call
    # that searches takes and grows
    monkeypatch.setattr(S, "_FREE_TABLES", [])
    pairs = [S.take_tables(256), S.take_tables(16)]
    for pair in pairs:
        S.put_back_tables(*pair, {}, 0)
    grid = _wall((16, 16), 8)
    start, goal, want = {
        "reached": ((2, 2), (5, 13), 8 + 3 * SQRT2),
        "other-component": ((2, 2), (13, 13), math.inf),
        "start-is-goal": ((2, 2), (2, 2), 0.0),
        "blocked": ((2, 2), (8, 3), math.inf),
    }[case]
    before = free_pairs()
    assert B.dijkstra_optimal(grid, start, goal) == want
    assert free_pairs() == before
    assert [len(g) for g, _ in S._FREE_TABLES] == [256, 256 if case in ("reached", "other-component") else 16]
    assert_free_list_clean()


def test_a_raising_oracle_call_keeps_its_pair(monkeypatch):
    monkeypatch.setattr(S, "_FREE_TABLES", [])
    grid = G.GridMap.empty((9, 9))
    S.plan(S.Problem(grid, (0, 0), (8, 8)))
    (kept,) = S._FREE_TABLES

    def broken(grid, bp, start, goal):
        raise SearchCorruptionError("broken backpointer chain at goal")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(B, "walk_chain", broken)
        with pytest.raises(SearchCorruptionError):
            B.dijkstra_optimal(grid, (0, 0), (8, 8))
    assert S._FREE_TABLES == [] and kept[0][0] == 0.0 and kept[1][0] == 1
    assert B.dijkstra_optimal(grid, (0, 0), (8, 8)) == 8 * SQRT2
    assert len(S._FREE_TABLES) == 1 and S._FREE_TABLES[0][0] is not kept[0]
    assert_free_list_clean()


def _queries():
    """(grid, start, goal) on maps of five sizes, 2D and 3D, every
    endpoint free and on the 3-sublattice, so that each bench.ALGOS
    planner (wa-low at k = 3) runs on every query; the first pair lies
    on two sides of a wall."""
    out = [(_wall((16, 16), 8), (1, 1), (13, 13))]
    rng = np.random.default_rng(17)
    for n, extents in enumerate([(13, 13), (6, 6, 6), (40, 34), (12, 12, 12)]):
        grid = syn.random_grid(extents, 0.25, seed=20 + n)
        cells = [c for c in itertools.product(*(range(1, e, 3) for e in extents))
                 if oracles.free(grid, c)]
        for a, b in rng.choice(len(cells), size=(3, 2)):
            out.append((grid, cells[a], cells[b]))
    return out


def _plans(query, ladder=(1, 3)):
    config = S.PlannerConfig(policy="dts", seed=3)
    return [_fields(bench.run_algo(algo, *query, ladder, config, log_expansions=True))
            for algo in bench.ALGOS]


def test_oracle_calls_interleaved_with_plans_change_no_answer(monkeypatch):
    # every planner's PlanResult (expansion log included) and every
    # oracle answer, each with a free list of its own, then again with
    # oracle calls on other queries (so on other maps, of other sizes)
    # before and after each plan, from one shared free list
    queries = _queries()
    monkeypatch.setattr(S, "_FREE_TABLES", [])
    want_plans = [_plans(q) for q in queries]
    monkeypatch.setattr(S, "_FREE_TABLES", [])
    want_costs = [B.dijkstra_optimal(*q).hex() for q in queries]
    assert {r["status"] for plans in want_plans for r in plans} == {S.STATUS_SOLVED, S.STATUS_EXHAUSTED}
    assert "inf" in want_costs and len(set(want_costs)) > 3
    monkeypatch.setattr(S, "_FREE_TABLES", [])
    n = len(queries)
    for i, q in enumerate(queries):
        before, after = queries[(i + 5) % n], queries[(i + 7) % n]
        assert B.dijkstra_optimal(*before).hex() == want_costs[(i + 5) % n]
        assert _plans(q) == want_plans[i]
        assert B.dijkstra_optimal(*after).hex() == want_costs[(i + 7) % n]
        assert B.dijkstra_optimal(*q).hex() == want_costs[i]
    assert len(S._FREE_TABLES) == 1
    assert_free_list_clean()


def test_threads_mixing_plans_and_oracle_calls():
    # four threads, each planning and calling the oracle in turn, with a
    # short switch interval: every answer equals the single-thread one
    queries = _queries()
    want = [(_fields(S.plan(S.Problem(*q, ladder=(1, 3)))), B.dijkstra_optimal(*q).hex())
            for q in queries]
    errors = []

    def worker(shift):
        try:
            for _ in range(3):
                for i in range(len(queries)):
                    j = (i + shift) % len(queries)
                    q = queries[j]
                    got = B.dijkstra_optimal(*q).hex()
                    assert (_fields(S.plan(S.Problem(*q, ladder=(1, 3)))), got) == want[j]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
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


def test_a_warm_oracle_call_allocates_for_the_cells_it_reaches():
    # The same short query on a 24^3 map and on the 48^3 map that tiles
    # it 2 x 2 x 2 settles the same cells in the same order.  Once each
    # map's k = 1 table and a pair as long as the larger map exist, the
    # call's traced peak is alike on both, and far below the 235 KB that
    # one 24^3 call took when it allocated whole-map dist, bp and done
    # buffers (1.9 MB on 48^3).
    small = syn.random_grid((24, 24, 24), 0.25, seed=3)
    large = G.GridMap((48, 48, 48), np.tile(small.blocked, (2, 2, 2)))
    start, goal = (8, 8, 8), (14, 12, 10)
    for grid in (large, small):
        assert B.dijkstra_optimal(grid, start, goal) == B.dijkstra_optimal(small, start, goal)
    peaks = {}
    tracemalloc.start()
    try:
        for grid in (small, large, small, large):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert 8 < B.dijkstra_optimal(grid, start, goal) < 9
            peaks.setdefault(grid.extents, []).append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    small_peak, large_peak = max(peaks[small.extents]), max(peaks[large.extents])
    assert large_peak <= 1.25 * small_peak + 1024, peaks
    assert large_peak < 32 * 1024, peaks
