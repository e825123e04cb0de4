"""Differential test of the one search loop, search.FlatSearch.run.

MRA* and the single-queue baselines used to run two copies of the
best-first loop (MraSearch.run and baselines._single_queue, kept as
oracles.mra_run and oracles.single_queue).  Every bench.ALGOS entry must
give the same deterministic PlanResult through the merged loop as
through the loop it replaced: status, path, cost (as float.hex),
per-queue expansions, generated, winning queue, bound and expansion log.
The queries are seeded random 2D and 3D maps with solvable, exhausted
and sublattice-aligned pairs, both policies, nested, non-nested and
wider-than-the-map ladders, weights up to 1e307 (keys that overflow to
inf) and a timeout that fires before the first expansion.
"""

import dataclasses

import numpy as np
import pytest

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


def _old(algo, grid, start, goal, ladder, config):
    """The query through the loops that FlatSearch.run replaced."""
    if algo == "mra":
        search = S.MraSearch(S.Problem(grid, start, goal, ladder), config)
        return oracles.mra_run(search, log_expansions=True)
    k, union, w = {
        "wa-high": (1, False, config.w1),
        "wa-low": (ladder.multipliers[-1], False, config.w1),
        "wa-mr": (1, True, config.w1),
        "astar": (1, False, 1.0),
    }[algo]
    start, goal, _ = S.validate_query(grid, start, goal, sublattice=k, w=w)
    scales = ladder.multipliers if union else (k,)
    return oracles.single_queue(grid, start, goal, scales, union, w, config.timeout, True)


def _new(algo, grid, start, goal, ladder, config):
    return BE.run_algo(algo, grid, start, goal, ladder, config, log_expansions=True)


def _fields(call, *args):
    """Every deterministic PlanResult field, or the refusal message."""
    try:
        res = call(*args)
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


@pytest.mark.parametrize("name", sorted(MAPS))
def test_merged_loop_matches_the_replaced_loops(name):
    extents, density, seed, ladders = MAPS[name]
    grid = syn.random_grid(extents, density, seed)
    statuses = set()
    for start, goal in _pairs(grid, seed):
        for n, lad in enumerate(map(G.ResolutionLadder, ladders)):
            for config in CONFIGS:
                for algo in BE.ALGOS:
                    if n and algo in LADDER_FREE:
                        continue
                    query = (algo, grid, start, goal, lad, config)
                    want = _fields(_old, *query)
                    got = _fields(_new, *query)
                    assert got == want, query
                    statuses.add(want[0] if isinstance(want, tuple) else want["status"])
    assert statuses == {"invalid", S.STATUS_SOLVED, S.STATUS_EXHAUSTED, S.STATUS_TIMEOUT}


# 31 and 70 levels; the second needs more mask bits than a uint64 holds
LONG_LADDERS = [tuple(range(1, 62, 2)), tuple(range(1, 140, 2))]


@pytest.mark.parametrize("scales", LONG_LADDERS, ids=lambda s: f"{len(s)}-levels")
def test_long_ladders_match_the_replaced_loops(scales):
    # wa-mr's union tables are built per space mask that a query meets,
    # so their cost does not grow with the number of ladder levels
    lad = G.ResolutionLadder(scales)
    for name in ("2d-a", "3d-a"):
        extents, density, seed, _ = MAPS[name]
        grid = syn.random_grid(extents, density, seed)
        for start, goal in _pairs(grid, seed):
            for config in (CONFIGS[0], CONFIGS[3]):
                for algo in ("mra", "wa-mr"):
                    query = (algo, grid, start, goal, lad, config)
                    assert _fields(_new, *query) == _fields(_old, *query), query
