"""Differential tests of the one search loop, search.FlatSearch.run.

MRA* and the single-queue baselines share one best-first loop.  It
relaxes and pushes inline, reading each state's moves from its tables'
decoded-move caches.  The core it replaced, whose loop called
FlatSearch.expand and OpenList.insert_or_update for every expansion
and improved successor, is kept as oracles.FlatSearch, oracles.OpenList
and oracles.MraSearch; it is the one reference of this layer.  Every
bench.ALGOS entry must give the same deterministic PlanResult through
the fused loop as through the old core: status, path, cost (as
float.hex), per-queue expansions, generated, winning queue, bound and
expansion log.  The queries are seeded random 2D and 3D maps with
solvable, exhausted and sublattice-aligned pairs, both policies,
nested, non-nested, wider-than-the-map and 31- and 70-level ladders,
weights up to 1e307 (keys that overflow to inf), w1 > w2 and a timeout
that fires before the first expansion, plus ACCEPTANCE 4's cul-de-sac
instances, where at w1 = w2 = 3 the coarse queues do most of MRA*'s
expansions and at w1 = 5, w2 = 3 the gate blocks most coarse picks, so
that the anchor does most of them.  The old core runs with the policies
the new ones replaced (oracles.RoundRobin and oracles.DynamicThompson),
so the pick sequence and the draw stream are held to theirs too.  A
hypothesis property holds wa_union, whose one queue reads every level's
table at every state, to the old core's search that picks each state's
tables by its space mask.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrastar import baselines as B
from mrastar import bench as BE
from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError
from mrastar.maps_io import gen_scenarios

import oracles

# name -> (extents, density, seed, ladders); the last ladder of each map
# has a scale wider than the map
MAPS = {
    "2d-a": ((24, 24), 0.30, 1, [(1,), (1, 3, 5), (1, 5, 7), (1, 3, 41)]),
    "2d-b": ((20, 26), 0.40, 2, [(1,), (1, 3, 5), (1, 5, 7), (1, 27)]),
    "3d-a": ((10, 10, 10), 0.35, 3, [(1,), (1, 3, 5), (1, 5, 7), (1, 3, 11)]),
    "3d-b": ((9, 11, 8), 0.40, 4, [(1,), (1, 3, 5), (1, 5, 7), (1, 13)]),
}

CONFIGS = [
    S.PlannerConfig(w1=3.0, w2=3.0, policy="round_robin"),
    S.PlannerConfig(w1=3.0, w2=2.0, policy="dts", seed=5),
    S.PlannerConfig(w1=1.0, w2=1.0, policy="dts", seed=1),
    S.PlannerConfig(w1=1e307, w2=1.5, policy="round_robin"),
    S.PlannerConfig(w1=1e307, w2=1e307, policy="dts", seed=2),
    S.PlannerConfig(w1=2.0, w2=2.0, policy="round_robin", timeout=1e-12),
]


# algos that ignore the ladder, run with the first one only
LADDER_FREE = ("wa-high", "astar")


def _new(algo, grid, start, goal, ladder, config):
    return BE.run_algo(algo, grid, start, goal, ladder, config, log_expansions=True)


def _old_flat_search(grid, start, goal, queue_scales, weights, bound, timeout):
    """The baselines' one-queue core as oracles.FlatSearch builds it:
    one scale as is, or a ladder's scales picked per state by its space
    mask (table_masks)."""
    (scales,) = queue_scales
    masks = grid.space_masks(scales) if len(scales) > 1 else None
    return oracles.FlatSearch(grid, start, goal, scales, weights, bound, timeout,
                              table_masks=masks)


def _old_core(algo, grid, start, goal, ladder, config):
    """The query through the same front doors, run by the core that the
    fused loop replaced (FlatSearch.run calling expand, kept in oracles)."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(B, "FlatSearch", _old_flat_search)
        m.setattr(S, "MraSearch", oracles.MraSearch)
        return _new(algo, grid, start, goal, ladder, config)


def _fields(call, *args, **kwargs):
    """Every deterministic PlanResult field, or the refusal message."""
    try:
        res = call(*args, **kwargs)
    except InvalidProblemError as exc:
        return ("invalid", str(exc))
    out = dataclasses.asdict(res)
    del out["wall_time"]
    out["cost"] = float(out["cost"]).hex()
    return out


def _pairs(grid, seed):
    """Two connected pairs, one pair in different components (exhausted)
    and one pair on the 5-sublattice, so that wa-low on (1, 3, 5) plans."""
    pairs = [(sc.start, sc.goal) for sc in gen_scenarios(grid, 2, seed)]
    labels = G.fine_components(grid).ravel()
    free = np.flatnonzero(labels >= 0)
    big = np.bincount(labels[free]).argmax()
    other = free[labels[free] != big]
    pairs.append((grid.cell_of(int(free[labels[free] == big][0])), grid.cell_of(int(other[-1]))))
    on5 = [int(c) for c in free if G.coincides(grid.cell_of(int(c)), 5)]
    on5 = [c for c in on5 if labels[c] == big]
    pairs.append((grid.cell_of(on5[0]), grid.cell_of(on5[-1])))
    return pairs


# 31 and 70 levels; the second needs more mask bits than a uint64 holds
LONG_LADDERS = [tuple(range(1, 62, 2)), tuple(range(1, 140, 2))]


@pytest.mark.parametrize("name", sorted(MAPS))
def test_fused_loop_matches_the_old_core(name):
    extents, density, seed, ladders = MAPS[name]
    grid = syn.random_grid(extents, density, seed)
    statuses = set()
    for start, goal in _pairs(grid, seed):
        for n, lad in enumerate(map(G.ResolutionLadder, ladders + LONG_LADDERS)):
            for config in CONFIGS:
                for algo in BE.ALGOS:
                    if n and algo in LADDER_FREE:
                        continue
                    query = (algo, grid, start, goal, lad, config)
                    want = _fields(_old_core, *query)
                    assert _fields(_new, *query) == want, query
                    statuses.add(want[0] if isinstance(want, tuple) else want["status"])
    assert statuses == {"invalid", S.STATUS_SOLVED, S.STATUS_EXHAUSTED, S.STATUS_TIMEOUT}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_queue_tables_leave_out_tables_without_moves(name):
    # a scale wider than the map, or with no run of k free cells on its
    # sublattice, has every mask 0: no queue reads its table
    extents, density, seed, ladders = MAPS[name]
    grid = syn.random_grid(extents, density, seed)
    start, goal = _pairs(grid, seed)[0]
    dropped = 0
    for scales in ladders + LONG_LADDERS:
        holds = {k: np.asarray(grid.move_table(k).masks).any() for k in scales}
        union = S.FlatSearch(grid, start, goal, [scales], (1.0,), bound=1.0)
        assert [t.k for t in union.tables[0]] == [k for k in scales if holds[k]]
        mra = S.MraSearch(S.Problem(grid, start, goal, scales))
        assert [[t.k for t in ts] for ts in mra.tables] == [[k] if holds[k] else [] for k in scales]
        dropped += not all(holds.values())
    assert dropped


@pytest.mark.parametrize("seed", [0, 1])
def test_culdesac_matches_the_old_core(seed):
    # ACCEPTANCE 4's cul-de-sac, endpoints on the k = 21 sublattice.  At
    # w1 = w2 = 3 the coarse queues expand states other than the start,
    # which only the multi-queue push (successors whose mask is not 1)
    # puts there; the single-queue algos take the anchor-only push.  At
    # w1 = 5, w2 = 3 the loop is gate-blocked: a coarse queue holds a
    # state on nearly every iteration, yet the gate hands most picks to
    # the anchor, which does most of MRA*'s expansions.
    grid, start, goal = syn.cul_de_sac_instance(seed)
    lad = G.ResolutionLadder((1, 7, 21))
    for w1 in (3.0, 5.0):
        configs = (S.PlannerConfig(w1=w1, w2=3.0, policy="round_robin"),
                   S.PlannerConfig(w1=w1, w2=3.0, policy="dts", seed=seed))
        for config in configs:
            for algo in BE.ALGOS:
                query = (algo, grid, start, goal, lad, config)
                want = _fields(_old_core, *query)
                assert _fields(_new, *query) == want, query
                assert want["status"] == S.STATUS_SOLVED
                if algo != "mra":
                    continue
                if w1 == 3.0:
                    assert any(q and cell != start for q, cell in want["expansion_log"])
                else:
                    anchor, *coarse = want["expansions"]
                    assert anchor > 0.9 * (anchor + sum(coarse)) and sum(coarse) > 0


# odd scales from 3 up to 41, many of them wider than the maps drawn
# below, weighted toward the small ones that leave coarse moves
_COARSE = st.lists(st.one_of(st.integers(1, 4), st.integers(1, 20)).map(lambda n: 2 * n + 1),
                   min_size=1, max_size=3, unique=True)


@settings(max_examples=200)
@given(
    extents=st.lists(st.integers(1, 16), min_size=2, max_size=3),
    density=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**16),
    coarse=_COARSE,
    ends=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    level=st.integers(0, 3),
    w=st.sampled_from([1.0, 1.5, 3.0]),
)
def test_union_queue_equals_the_space_mask_search(extents, density, seed, coarse, ends,
                                                  level, w):
    # wa_union's one queue reads every level's table at every state; the
    # old core's search that picks a state's tables by its space mask
    # (_old_flat_search) gives every deterministic
    # field alike, on nested, non-nested and wider-than-the-map ladders.
    # Both endpoints lie on the sublattice of one ladder level, when free
    # cells lie there, so that the moves of every level are taken.
    grid = syn.random_grid(extents, density, seed)
    scales = (1, *sorted(coarse))
    free = [grid.cell_of(int(v)) for v in np.flatnonzero(~grid.flat_blocked)]
    assume(free)
    on = [c for c in free if G.coincides(c, scales[min(level, len(scales) - 1)])] or free
    start, goal = (on[e % len(on)] for e in ends)
    old = _old_flat_search(grid, start, goal, (scales,), (w,), w, math.inf)
    want = _fields(old.run, log_expansions=True)
    got = _fields(B.wa_union, grid, start, goal, G.ResolutionLadder(scales), w=w,
                  log_expansions=True)
    assert got == want
