"""Synthetic map families: structural invariants the benchmarks rely on."""

import numpy as np
import pytest

from mrastar import grid as G
from mrastar import synthetic as syn
from mrastar.errors import InvalidProblemError


def test_random_grid_density_and_determinism():
    g1 = syn.random_grid((64, 64), 0.3, seed=4)
    g2 = syn.random_grid((64, 64), 0.3, seed=4)
    assert np.array_equal(g1.blocked, g2.blocked)
    frac = g1.blocked.mean()
    assert 0.25 < frac < 0.35
    g3 = syn.random_grid((16, 8, 4), 0.0, seed=0)
    assert not g3.blocked.any()
    with pytest.raises(ValueError):
        syn.random_grid((8, 8), 1.5, seed=0)
    # each used to leak a TypeError or int()'s "invalid literal", or, for
    # True, to block every cell; (4, -1) failed inside numpy
    for extents, density, message in [
        ((4, 4), "0.3", "density must be a real number, got '0.3'"),
        ((4, 4), True, "density must be a real number, got True"),
        (("a", 4), 0.3, "extents must be integers, got ('a', 4)"),
        ((4, -1), 0.3, "extents must be positive, got (4, -1)"),
        # used to leak TypeError: 'int' object is not iterable
        (5, 0.3, "extents 5 is not a sequence of sizes"),
    ]:
        with pytest.raises(InvalidProblemError) as exc:
            syn.random_grid(extents, density, seed=1)
        assert str(exc.value) == message


@pytest.mark.parametrize("seed", range(8))
def test_corridor_instance_structure(seed):
    grid, start, goal = syn.corridor_instance(seed)
    again = syn.corridor_instance(seed)
    assert np.array_equal(again[0].blocked, grid.blocked) and again[1:] == (start, goal)
    assert not grid.blocked[start[::-1]] and not grid.blocked[goal[::-1]]
    assert G.coincides(start, 7) and G.coincides(goal, 7)
    labels = G.fine_components(grid)
    assert labels[tuple(reversed(start))] == labels[tuple(reversed(goal))]
    # wall spans full height except exactly one free row, off the 7-lattice
    col_blocked = grid.blocked.sum(axis=0)
    wall_cols = np.flatnonzero(col_blocked > 0)
    assert len(wall_cols) >= 3
    gaps = np.flatnonzero(~grid.blocked[:, wall_cols[0]])
    assert len(gaps) == 1 and gaps[0] % 7 != 3
    assert start[0] < wall_cols[0] and goal[0] > wall_cols[-1]


@pytest.mark.parametrize("seed", range(8))
def test_cul_de_sac_instance_structure(seed):
    grid, start, goal = syn.cul_de_sac_instance(seed)
    again = syn.cul_de_sac_instance(seed)
    assert np.array_equal(again[0].blocked, grid.blocked) and again[1:] == (start, goal)
    assert not grid.blocked[start[::-1]] and not grid.blocked[goal[::-1]]
    assert G.coincides(start, 21) and G.coincides(goal, 21)
    assert start[1] == goal[1]  # straight line start->goal
    labels = G.fine_components(grid)
    assert labels[tuple(reversed(start))] == labels[tuple(reversed(goal))]
    # the straight start->goal line runs into the back wall of the pocket
    row = grid.blocked[start[1]]
    hits = np.flatnonzero(row[start[0] : goal[0] + 1])
    assert len(hits) >= 2  # back wall thickness
    back_wall = start[0] + int(hits[0])
    # the pocket arms reach at least 20 cells toward the start, so the
    # fine search must flood a >= 20-deep depression before escaping
    run_lengths = []
    for r in grid.blocked:
        xs = np.flatnonzero(r)
        if len(xs):
            run_lengths.append(xs[-1] - xs[0] + 1)
    assert max(run_lengths) >= 21
    arm_rows = [r for r in grid.blocked if r.sum() >= 21]
    assert len(arm_rows) >= 4  # two arms, each two rows thick
    for r in arm_rows:
        assert np.flatnonzero(r)[0] < back_wall  # opening faces the start


def test_instances_vary_with_seed():
    a = syn.corridor_instance(1)
    b = syn.corridor_instance(2)
    assert (
        a[0].extents != b[0].extents
        or not np.array_equal(a[0].blocked, b[0].blocked)
        or a[1:] != b[1:]
    )
    c = syn.cul_de_sac_instance(1)
    d = syn.cul_de_sac_instance(2)
    assert not np.array_equal(c[0].blocked, d[0].blocked) or c[1:] != d[1:]
