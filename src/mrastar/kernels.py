"""Plain-Python kernels for grid geometry and the oracle Dijkstra.

Everything here operates on flat occupancy sequences (a numpy bool array
or a list; True for blocked cells) plus integer coordinates.  The
supercover walk decides which cells a move touches; the successor
functions and the unit-lattice Dijkstra are built on it, so the oracle
stays independent of the planners' move tables (grid.MoveTable).
Connected-component labels come from scipy.ndimage.

Coordinate convention: x is the fastest-varying axis.  A 2D map with
width w stores cell (x, y) at flat index y*w + x; a 3D map with width w
and height h stores (x, y, z) at (z*h + y)*w + x.
"""

import math
from array import array
from heapq import heappop, heappush

import numpy as np
from scipy import ndimage

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Cost of a unit move, indexed by the number of axes it changes.
STEP = (0.0, 1.0, SQRT2, SQRT3)

# There is no compiled backend; perfbench/run.py's environment record
# still reads this flag.
NUMBA_ENABLED = False


def supercover_free_2d(occ, w, x0, y0, x1, y1):
    """True iff every cell whose closed unit square the segment from the
    center of (x0, y0) to the center of (x1, y1) intersects is free.

    When the segment passes exactly through a lattice corner, both cells
    flanking the crossing must be free (no squeezing through a corner).
    Caller guarantees both endpoints are in bounds.
    """
    if occ[y0 * w + x0] or occ[y1 * w + x1]:
        return False
    nx = x1 - x0
    ny = y1 - y0
    sx = 1 if nx > 0 else -1
    sy = 1 if ny > 0 else -1
    if nx < 0:
        nx = -nx
    if ny < 0:
        ny = -ny
    ix = 0
    iy = 0
    x = x0
    y = y0
    while ix < nx or iy < ny:
        # Compare the next vertical-crossing fraction (2*ix+1)/(2*nx)
        # with the next horizontal one; cross-multiplied to stay exact.
        d = (1 + 2 * ix) * ny - (1 + 2 * iy) * nx
        if d == 0:
            # Exact corner crossing: both flanking cells must be free.
            if occ[y * w + (x + sx)] or occ[(y + sy) * w + x]:
                return False
            x += sx
            y += sy
            ix += 1
            iy += 1
        elif d < 0:
            x += sx
            ix += 1
        else:
            y += sy
            iy += 1
        if occ[y * w + x]:
            return False
    return True


def supercover_free_3d(occ, w, h, x0, y0, z0, x1, y1, z1):
    """3D analogue of supercover_free_2d.

    At a crossing where two or three grid planes are met simultaneously,
    every cell reached by advancing a proper nonempty subset of the tied
    axes must be free as well.
    """
    if occ[(z0 * h + y0) * w + x0] or occ[(z1 * h + y1) * w + x1]:
        return False
    nx = x1 - x0
    ny = y1 - y0
    nz = z1 - z0
    sx = 1 if nx > 0 else -1
    sy = 1 if ny > 0 else -1
    sz = 1 if nz > 0 else -1
    if nx < 0:
        nx = -nx
    if ny < 0:
        ny = -ny
    if nz < 0:
        nz = -nz
    ix = 0
    iy = 0
    iz = 0
    x = x0
    y = y0
    z = z0
    while ix < nx or iy < ny or iz < nz:
        # Next crossing fraction per active axis is (2*i+1)/(2*n).
        mp = 0
        mq = 0
        if nx > 0 and ix < nx:
            mp = 1 + 2 * ix
            mq = 2 * nx
        if ny > 0 and iy < ny:
            p = 1 + 2 * iy
            q = 2 * ny
            if mq == 0 or p * mq < mp * q:
                mp = p
                mq = q
        if nz > 0 and iz < nz:
            p = 1 + 2 * iz
            q = 2 * nz
            if mq == 0 or p * mq < mp * q:
                mp = p
                mq = q
        stepx = nx > 0 and ix < nx and (1 + 2 * ix) * mq == mp * (2 * nx)
        stepy = ny > 0 and iy < ny and (1 + 2 * iy) * mq == mp * (2 * ny)
        stepz = nz > 0 and iz < nz and (1 + 2 * iz) * mq == mp * (2 * nz)
        nstep = 0
        if stepx:
            nstep += 1
        if stepy:
            nstep += 1
        if stepz:
            nstep += 1
        if nstep >= 2:
            if stepx and occ[(z * h + y) * w + (x + sx)]:
                return False
            if stepy and occ[(z * h + (y + sy)) * w + x]:
                return False
            if stepz and occ[((z + sz) * h + y) * w + x]:
                return False
            if nstep == 3:
                if occ[(z * h + (y + sy)) * w + (x + sx)]:
                    return False
                if occ[((z + sz) * h + y) * w + (x + sx)]:
                    return False
                if occ[((z + sz) * h + (y + sy)) * w + x]:
                    return False
        if stepx:
            x += sx
            ix += 1
        if stepy:
            y += sy
            iy += 1
        if stepz:
            z += sz
            iz += 1
        if occ[(z * h + y) * w + x]:
            return False
    return True


def successors_2d(occ, w, h, x, y, k):
    """Valid 8-connected moves of length k from (x, y), as a list of
    (flat id, axes changed) pairs.

    Order is fixed: dy from -1 to 1 outer, dx inner, (0, 0) skipped.
    """
    out = []
    for dy in (-1, 0, 1):
        y1 = y + k * dy
        if y1 < 0 or y1 >= h:
            continue
        for dx in (-1, 0, 1):
            x1 = x + k * dx
            if (dx == 0 and dy == 0) or x1 < 0 or x1 >= w:
                continue
            if supercover_free_2d(occ, w, x, y, x1, y1):
                out.append((y1 * w + x1, (dx != 0) + (dy != 0)))
    return out


def successors_3d(occ, w, h, d, x, y, z, k):
    """26-connected analogue of successors_2d; dz outermost."""
    out = []
    for dz in (-1, 0, 1):
        z1 = z + k * dz
        if z1 < 0 or z1 >= d:
            continue
        for dy in (-1, 0, 1):
            y1 = y + k * dy
            if y1 < 0 or y1 >= h:
                continue
            for dx in (-1, 0, 1):
                x1 = x + k * dx
                if (dx == 0 and dy == 0 and dz == 0) or x1 < 0 or x1 >= w:
                    continue
                if supercover_free_3d(occ, w, h, x, y, z, x1, y1, z1):
                    out.append(((z1 * h + y1) * w + x1, (dx != 0) + (dy != 0) + (dz != 0)))
    return out


def _dijkstra(occ, source, goal, succ):
    """Exact distances from flat id source over the unit moves succ(u),
    a list of (flat id, axes changed); occ is a list of blocked flags.
    Stops once goal is settled (goal = -1 for a full field).  Returns
    (dist, bp) as numpy arrays; bp holds predecessor flat ids, -1 for
    the source and unreached cells."""
    n, source, goal = len(occ), int(source), int(goal)
    dist = array("d", [math.inf]) * n
    bp = array("q", [-1]) * n
    if not occ[source]:
        done = bytearray(n)
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            du, u = heappop(heap)
            if done[u]:
                continue
            done[u] = 1
            if u == goal:
                break
            for v, m in succ(u):
                nd = du + STEP[m]
                if nd < dist[v]:
                    dist[v] = nd
                    bp[v] = u
                    heappush(heap, (nd, v))
    return np.frombuffer(dist, dtype=np.float64), np.frombuffer(bp, dtype=np.int64)


def dijkstra_2d(occ, w, h, sx, sy, gx, gy):
    """Exact shortest-path distances from (sx, sy) on the unit lattice.

    Returns (dist, bp) flat arrays; bp holds predecessor flat indices,
    -1 for the source and unreached cells.  A nonnegative gx enables
    early exit once the goal is settled; pass gx = -1 for a full field.
    """
    occ = np.asarray(occ, dtype=bool).ravel().tolist()
    goal = gy * w + gx if gx >= 0 else -1
    return _dijkstra(
        occ, sy * w + sx, goal, lambda u: successors_2d(occ, w, h, u % w, u // w, 1)
    )


def dijkstra_3d(occ, w, h, d, sx, sy, sz, gx, gy, gz):
    """3D version of dijkstra_2d on the 26-connected unit lattice."""
    occ = np.asarray(occ, dtype=bool).ravel().tolist()
    goal = (gz * h + gy) * w + gx if gx >= 0 else -1
    wh = w * h
    return _dijkstra(
        occ,
        (sz * h + sy) * w + sx,
        goal,
        lambda u: successors_3d(occ, w, h, d, u % w, u % wh // w, u // wh, 1),
    )


def component_labels_2d(occ, w, h):
    """Label connected free regions of the unit lattice (same move rules
    as the planners, including the corner rule).  Blocked cells get -1;
    labels start at 0 in scan order.

    Under the corner rule a diagonal unit move needs both flank cells
    free, so unit-lattice connectivity is exactly face (4-)connectivity,
    which scipy.ndimage.label computes; its labels also follow scan
    order.  Returns a flat int32 array."""
    labels, _ = ndimage.label(~np.asarray(occ, dtype=bool).reshape(h, w))
    return (labels - 1).astype(np.int32).ravel()


def component_labels_3d(occ, w, h, d):
    """3D analogue of component_labels_2d: face (6-)connectivity equals
    26-connectivity under the corner rule."""
    labels, _ = ndimage.label(~np.asarray(occ, dtype=bool).reshape(d, h, w))
    return (labels - 1).astype(np.int32).ravel()
