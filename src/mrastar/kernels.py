"""Numeric kernels for grid geometry and search inner loops.

Everything here operates on flat boolean occupancy arrays plus integer
coordinates, so the same source compiles under numba, when it is
installed, and also runs as plain Python.  numba is an optional
accelerator; set MRA_NO_NUMBA=1 to skip compilation even when it is
present.  Callers see identical results either way, only slower.
Connected-component labels come from scipy.ndimage on either backend.

Coordinate convention: x is the fastest-varying axis.  A 2D map with
width w stores cell (x, y) at flat index y*w + x; a 3D map with width w
and height h stores (x, y, z) at (z*h + y)*w + x.  Occupancy arrays hold
True for blocked cells.
"""

import math
import os

import numpy as np
from scipy import ndimage

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

INF = math.inf


def _numba_disabled() -> bool:
    v = os.environ.get("MRA_NO_NUMBA", "").strip().lower()
    return v not in ("", "0", "false", "no")


NUMBA_ENABLED = False
if not _numba_disabled():
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is an optional accelerator (the "jit" extra)
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    def _jit(func):
        return _njit(cache=True)(func)
else:
    def _jit(func):
        return func


@_jit
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


@_jit
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


@_jit
def successors_2d(occ, w, h, x, y, k, out_xy, out_m):
    """Fill out_xy/out_m with the valid 8-connected moves of length k
    from (x, y) and return their count.

    out_m receives the number of axes the move changes (1 or 2).  Order
    is fixed: dy from -1 to 1 outer, dx inner, (0, 0) skipped.
    """
    n = 0
    for dy in range(-1, 2):
        for dx in range(-1, 2):
            if dx == 0 and dy == 0:
                continue
            x1 = x + k * dx
            y1 = y + k * dy
            if x1 < 0 or x1 >= w or y1 < 0 or y1 >= h:
                continue
            if not supercover_free_2d(occ, w, x, y, x1, y1):
                continue
            out_xy[n, 0] = x1
            out_xy[n, 1] = y1
            out_m[n] = (1 if dx != 0 else 0) + (1 if dy != 0 else 0)
            n += 1
    return n


@_jit
def successors_3d(occ, w, h, d, x, y, z, k, out_xyz, out_m):
    """26-connected analogue of successors_2d; dz outermost."""
    n = 0
    for dz in range(-1, 2):
        for dy in range(-1, 2):
            for dx in range(-1, 2):
                if dx == 0 and dy == 0 and dz == 0:
                    continue
                x1 = x + k * dx
                y1 = y + k * dy
                z1 = z + k * dz
                if x1 < 0 or x1 >= w or y1 < 0 or y1 >= h:
                    continue
                if z1 < 0 or z1 >= d:
                    continue
                if not supercover_free_3d(occ, w, h, x, y, z, x1, y1, z1):
                    continue
                out_xyz[n, 0] = x1
                out_xyz[n, 1] = y1
                out_xyz[n, 2] = z1
                m = 0
                if dx != 0:
                    m += 1
                if dy != 0:
                    m += 1
                if dz != 0:
                    m += 1
                out_m[n] = m
                n += 1
    return n


@_jit
def dijkstra_2d(occ, w, h, sx, sy, gx, gy):
    """Exact shortest-path distances from (sx, sy) on the unit lattice.

    Returns (dist, bp) flat arrays; bp holds predecessor flat indices,
    -1 for the source and unreached cells.  A nonnegative gx enables
    early exit once the goal is settled; pass gx = -1 for a full field.
    """
    n = w * h
    dist = np.full(n, INF)
    bp = np.full(n, -1, np.int64)
    done = np.zeros(n, np.bool_)
    out_xy = np.empty((8, 2), np.int64)
    out_m = np.empty(8, np.int64)
    cap = 1024
    hk = np.empty(cap)
    hv = np.empty(cap, np.int64)
    size = 0
    s = sy * w + sx
    if occ[s]:
        return dist, bp
    goal = -1
    if gx >= 0:
        goal = gy * w + gx
    dist[s] = 0.0
    hk[0] = 0.0
    hv[0] = s
    size = 1
    while size > 0:
        topk = hk[0]
        topv = hv[0]
        size -= 1
        hk[0] = hk[size]
        hv[0] = hv[size]
        i = 0
        while True:
            l = 2 * i + 1
            r = l + 1
            m = i
            if l < size and hk[l] < hk[m]:
                m = l
            if r < size and hk[r] < hk[m]:
                m = r
            if m == i:
                break
            hk[i], hk[m] = hk[m], hk[i]
            hv[i], hv[m] = hv[m], hv[i]
            i = m
        u = topv
        if done[u]:
            continue
        if topk > dist[u]:
            continue
        done[u] = True
        if u == goal:
            break
        ux = u % w
        uy = u // w
        cnt = successors_2d(occ, w, h, ux, uy, 1, out_xy, out_m)
        du = dist[u]
        for t in range(cnt):
            v = out_xy[t, 1] * w + out_xy[t, 0]
            if done[v]:
                continue
            c = 1.0 if out_m[t] == 1 else SQRT2
            nd = du + c
            if nd < dist[v]:
                dist[v] = nd
                bp[v] = u
                if size == cap:
                    cap2 = cap * 2
                    hk2 = np.empty(cap2)
                    hv2 = np.empty(cap2, np.int64)
                    for j in range(size):
                        hk2[j] = hk[j]
                        hv2[j] = hv[j]
                    hk = hk2
                    hv = hv2
                    cap = cap2
                hk[size] = nd
                hv[size] = v
                i = size
                size += 1
                while i > 0:
                    p = (i - 1) // 2
                    if hk[p] <= hk[i]:
                        break
                    hk[i], hk[p] = hk[p], hk[i]
                    hv[i], hv[p] = hv[p], hv[i]
                    i = p
    return dist, bp


@_jit
def dijkstra_3d(occ, w, h, d, sx, sy, sz, gx, gy, gz):
    """3D version of dijkstra_2d on the 26-connected unit lattice."""
    n = w * h * d
    dist = np.full(n, INF)
    bp = np.full(n, -1, np.int64)
    done = np.zeros(n, np.bool_)
    out_xyz = np.empty((26, 3), np.int64)
    out_m = np.empty(26, np.int64)
    cap = 1024
    hk = np.empty(cap)
    hv = np.empty(cap, np.int64)
    size = 0
    s = (sz * h + sy) * w + sx
    if occ[s]:
        return dist, bp
    goal = -1
    if gx >= 0:
        goal = (gz * h + gy) * w + gx
    dist[s] = 0.0
    hk[0] = 0.0
    hv[0] = s
    size = 1
    while size > 0:
        topk = hk[0]
        topv = hv[0]
        size -= 1
        hk[0] = hk[size]
        hv[0] = hv[size]
        i = 0
        while True:
            l = 2 * i + 1
            r = l + 1
            m = i
            if l < size and hk[l] < hk[m]:
                m = l
            if r < size and hk[r] < hk[m]:
                m = r
            if m == i:
                break
            hk[i], hk[m] = hk[m], hk[i]
            hv[i], hv[m] = hv[m], hv[i]
            i = m
        u = topv
        if done[u]:
            continue
        if topk > dist[u]:
            continue
        done[u] = True
        if u == goal:
            break
        ux = u % w
        uy = (u // w) % h
        uz = u // (w * h)
        cnt = successors_3d(occ, w, h, d, ux, uy, uz, 1, out_xyz, out_m)
        du = dist[u]
        for t in range(cnt):
            v = (out_xyz[t, 2] * h + out_xyz[t, 1]) * w + out_xyz[t, 0]
            if done[v]:
                continue
            m = out_m[t]
            if m == 1:
                c = 1.0
            elif m == 2:
                c = SQRT2
            else:
                c = SQRT3
            nd = du + c
            if nd < dist[v]:
                dist[v] = nd
                bp[v] = u
                if size == cap:
                    cap2 = cap * 2
                    hk2 = np.empty(cap2)
                    hv2 = np.empty(cap2, np.int64)
                    for j in range(size):
                        hk2[j] = hk[j]
                        hv2[j] = hv[j]
                    hk = hk2
                    hv = hv2
                    cap = cap2
                hk[size] = nd
                hv[size] = v
                i = size
                size += 1
                while i > 0:
                    p = (i - 1) // 2
                    if hk[p] <= hk[i]:
                        break
                    hk[i], hk[p] = hk[p], hk[i]
                    hv[i], hv[p] = hv[p], hv[i]
                    i = p
    return dist, bp


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
