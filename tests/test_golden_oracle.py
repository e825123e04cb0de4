"""Golden oracle: the unit-lattice Dijkstra reproduces recorded answers.

tests/data/golden_oracle.json was recorded with the array-heap Dijkstra
kernels that preceded the heapq one.  It holds float.hex of
dijkstra_optimal for every (map, pair) of test_golden_plans._maps(), in
both directions, and a sha256 of the full distance field
(kernels.dijkstra_2d/3d, shaped like the map) from one 2D and one 3D
source, under the key "dijkstra_field", the name of the deleted wrapper
that returned the same arrays.  The current oracle must reproduce both
bit for bit; backpointers may differ in which of several equal-cost
predecessors they keep, so they are not recorded.  To write the file:

    PYTHONPATH=src python tests/test_golden_oracle.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mrastar import kernels
from mrastar.baselines import dijkstra_optimal
from test_golden_plans import _maps

DATA = Path(__file__).parent / "data" / "golden_oracle.json"

# map name -> index of the pair whose start is the field's source
FIELDS = {"rand48x40": 0, "rand3d20x18x14": 0}


def _digest(dist) -> str:
    arr = np.ascontiguousarray(dist, dtype=np.float64)
    return hashlib.sha256(arr.tobytes()).hexdigest()


def compute() -> dict:
    maps = _maps()
    optimal = {}
    for name, (grid, pairs) in maps.items():
        for i, (start, goal) in enumerate(pairs):
            optimal[f"{name}#{i}"] = dijkstra_optimal(grid, start, goal).hex()
            optimal[f"{name}#{i} reversed"] = dijkstra_optimal(grid, goal, start).hex()
    fields = {}
    for name, i in FIELDS.items():
        grid, pairs = maps[name]
        field = kernels.dijkstra_2d if grid.dim == 2 else kernels.dijkstra_3d
        dist = field(grid.flat_blocked, *grid.extents, *pairs[i][0])[0].reshape(grid.blocked.shape)
        fields[f"{name}#{i}"] = {
            "shape": list(dist.shape),
            "finite": int(np.isfinite(dist).sum()),
            "sha256": _digest(dist),
        }
    return {"dijkstra_optimal": optimal, "dijkstra_field": fields}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current():
    return compute()


def test_golden_oracle_covers_2d_and_3d(golden):
    assert len(golden["dijkstra_optimal"]) >= 40
    assert "inf" in golden["dijkstra_optimal"].values()
    assert sorted(len(f["shape"]) for f in golden["dijkstra_field"].values()) == [2, 3]


def test_dijkstra_optimal_reproduced(golden, current):
    want, got = golden["dijkstra_optimal"], current["dijkstra_optimal"]
    assert sorted(got) == sorted(want)
    assert [q for q in want if got[q] != want[q]] == []


def test_dijkstra_field_reproduced(golden, current):
    assert current["dijkstra_field"] == golden["dijkstra_field"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
