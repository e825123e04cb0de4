"""Golden plans: every planner reproduces fingerprints recorded earlier.

tests/data/golden_plans.json holds one fingerprint per fixed query,
recorded with the search core that generated moves by walking each
segment's supercover on every expansion (that walk is kept as
oracles.walk_successors_2d/3d).
Any later core must reproduce every deterministic PlanResult field
bit for bit: status, path, cost (as float.hex), per-queue expansions,
generated, winning queue, bound and the expansion log.

The queries cover 2D and 3D maps, both policies, several ladders and
weights, corridor and cul-de-sac instances, a map narrower than its
coarse moves, exhausted queries and every bench.ALGOS entry (wa-low
refusals are recorded as "invalid").  To write the file for a new set
of queries:

    PYTHONPATH=src python tests/test_golden_plans.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from mrastar import bench as BE
from mrastar import grid as G
from mrastar import search as S
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError
from mrastar.maps_io import gen_scenarios

DATA = Path(__file__).parent / "data" / "golden_plans.json"


def _walled(extents, axis_pos):
    """A free map cut in two by a full wall at x = axis_pos."""
    grid = G.GridMap.empty(extents)
    blocked = grid.blocked.copy()
    blocked[..., axis_pos] = True
    return G.GridMap(extents, blocked)


def _maps():
    """name -> (grid, [(start, goal)]) with fixed seeds."""
    out = {}
    for name, ext, density, seed, n in (
        ("rand64", (64, 64), 0.30, 11, 4),
        ("rand48x40", (48, 40), 0.15, 12, 3),
        ("rand3d16", (16, 16, 16), 0.25, 13, 3),
        ("rand3d20x18x14", (20, 18, 14), 0.20, 14, 3),
        ("narrow5x40", (5, 40), 0.10, 15, 2),
        ("rand3d24", (24, 24, 24), 0.25, 16, 2),
    ):
        grid = syn.random_grid(ext, density, seed)
        pairs = [(sc.start, sc.goal) for sc in gen_scenarios(grid, n, seed)]
        out[name] = (grid, pairs)
    for seed in (0, 1):
        grid, start, goal = syn.corridor_instance(seed)
        out[f"corridor{seed}"] = (grid, [(start, goal)])
        grid, start, goal = syn.cul_de_sac_instance(seed)
        out[f"culdesac{seed}"] = (grid, [(start, goal)])
    out["wall2d"] = (_walled((16, 16), 8), [((2, 2), (13, 13))])
    out["wall3d"] = (_walled((10, 9, 8), 5), [((1, 1, 1), (8, 7, 6))])
    # endpoints on the 3- and 9-sublattices, so wa-low runs rather than refuses
    out["open27"] = (G.GridMap.empty((27, 27)), [((4, 4), (22, 13))])
    out["open3d27"] = (G.GridMap.empty((27, 18, 9)), [((4, 4, 4), (22, 13, 4))])
    return out


# (map, pair index, algos, ladder, w1, w2, policy, seed)
_ALL = tuple(BE.ALGOS)
QUERIES = (
    ("rand64", 0, _ALL, (1, 7, 21), 3.0, 3.0, "round_robin", 0),
    ("rand64", 1, ("mra",), (1, 7, 21), 3.0, 3.0, "dts", 5),
    ("rand64", 2, ("mra", "wa-mr"), (1, 3), 10.0, 1.5, "dts", 1),
    ("rand64", 3, ("mra", "wa-high"), (1, 5, 15), 1.0, 1.0, "round_robin", 0),
    ("rand48x40", 0, _ALL, (1, 3, 9), 2.0, 2.0, "dts", 2),
    ("rand48x40", 1, ("mra",), (1,), 3.0, 3.0, "round_robin", 0),
    ("rand48x40", 2, ("mra", "wa-mr"), (1, 7, 21), 5.0, 2.0, "round_robin", 0),
    ("rand3d16", 0, _ALL, (1, 9, 27), 3.0, 3.0, "dts", 3),
    ("rand3d16", 1, ("mra", "wa-mr"), (1, 3), 3.0, 3.0, "round_robin", 0),
    ("rand3d16", 2, ("mra",), (1, 3, 5), 1.5, 1.2, "dts", 9),
    ("rand3d20x18x14", 0, _ALL, (1, 3, 9), 3.0, 3.0, "round_robin", 0),
    ("rand3d20x18x14", 1, ("mra",), (1, 5), 2.0, 3.0, "dts", 4),
    ("rand3d20x18x14", 2, ("mra", "astar"), (1, 7, 21), 3.0, 1.0, "round_robin", 0),
    ("rand3d24", 0, ("mra",), (1, 9, 27), 3.0, 3.0, "dts", 11),
    ("rand3d24", 1, ("mra", "wa-mr"), (1, 9, 27), 3.0, 3.0, "round_robin", 0),
    ("narrow5x40", 0, ("mra", "wa-mr"), (1, 7, 21), 3.0, 3.0, "round_robin", 0),
    ("narrow5x40", 1, ("mra",), (1, 3, 7), 3.0, 3.0, "dts", 6),
    ("corridor0", 0, _ALL, (1, 7), 3.0, 3.0, "round_robin", 0),
    ("corridor1", 0, ("mra", "wa-low"), (1, 7, 21), 3.0, 3.0, "dts", 7),
    ("culdesac0", 0, _ALL, (1, 7, 21), 3.0, 3.0, "round_robin", 0),
    ("culdesac1", 0, ("mra",), (1, 7, 21), 3.0, 3.0, "dts", 8),
    ("culdesac1", 0, ("mra",), (1, 7, 21), 1.0, 2.0, "round_robin", 0),
    ("wall2d", 0, ("mra", "wa-mr", "astar"), (1, 3), 3.0, 3.0, "round_robin", 0),
    ("wall3d", 0, ("mra", "wa-high"), (1, 3), 3.0, 3.0, "dts", 1),
    ("open27", 0, _ALL, (1, 3, 9), 3.0, 3.0, "round_robin", 0),
    ("open3d27", 0, _ALL, (1, 3, 9), 3.0, 3.0, "dts", 2),
)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def fingerprint(result) -> dict:
    """Every deterministic PlanResult field; path and log as digests."""
    path = [tuple(int(c) for c in cell) for cell in result.path]
    log = [(int(i), tuple(int(c) for c in cell)) for i, cell in result.expansion_log]
    return {
        "status": result.status,
        "path_len": len(path),
        "path": _sha(path),
        "cost": float(result.cost).hex(),
        "expansions": list(result.expansions),
        "generated": result.generated,
        "winning_queue": result.winning_queue,
        "bound": result.bound,
        "log_len": len(log),
        "log": _sha(log),
    }


def compute() -> dict:
    maps = _maps()
    out = {}
    for name, idx, algos, ladder, w1, w2, policy, seed in QUERIES:
        grid, pairs = maps[name]
        start, goal = pairs[idx]
        config = S.PlannerConfig(w1=w1, w2=w2, policy=policy, seed=seed)
        lad = G.ResolutionLadder(ladder)
        for algo in algos:
            lad_text = ",".join(map(str, ladder))
            qid = f"{name}#{idx} {algo} L{lad_text} w{w1:g}/{w2:g} {policy}/{seed}"
            try:
                res = BE.run_algo(algo, grid, start, goal, lad, config, log_expansions=True)
            except InvalidProblemError:
                out[qid] = "invalid"
                continue
            out[qid] = fingerprint(res)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current():
    return compute()


def test_golden_covers_required_cases(golden):
    statuses = {fp if fp == "invalid" else fp["status"] for fp in golden.values()}
    assert statuses == {"solved", "exhausted", "invalid"}
    assert {qid.split()[1] for qid in golden} == set(BE.ALGOS)
    assert len(golden) >= 40


def test_golden_plans_reproduced(golden, current):
    assert sorted(current) == sorted(golden)
    mismatched = [qid for qid in golden if current[qid] != golden[qid]]
    assert not mismatched, mismatched


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
