"""Iso-level polyline extraction on a rectilinear grid (marching squares).

A cell's corners are taken in the order (i, k), (i+1, k), (i+1, k+1),
(i, k+1), and edge e runs from corner e to corner e+1 (mod 4).  An edge is
crossed when its end values lie strictly on either side of the level; the
crossing is interpolated along the edge in that direction.  A cell with two
crossings gives one segment, a saddle cell (four crossings) two, joined by
the sign of the centre value 0.25 (z00 + z10 + z01 + z11) against corner
(i, k); any other count gives none.  Segments are listed cell by cell, i
then k, and within a cell in edge order.  All cells of one level are
computed at once with numpy.

Chaining joins segment ends by the integer id of the grid edge they lie
on.  An edge is crossed at most once and belongs to at most two cells, so
each edge holds at most two segment ends and the greedy walk has at most
one way on.  The two cells sharing an edge interpolate its crossing in
opposite directions, so their copies can differ in the last bits; the
vertex kept is the copy of the segment the walk reached first.  Keying
ends by their coordinates rounded to 12 decimals makes the same joins as
long as that key names one edge's crossing: it does unless two crossings
lie within about 1e-12 of each other (a node nudged onto the level gives
two such crossings on its edges) or one crossing's two copies round apart.
In those cases the rounded key joins ends of different edges, or leaves one
crossing's two ends unjoined; the edge id joins exactly the ends that meet.
"""

from __future__ import annotations

import numpy as np

# Corner offsets (di, dk) of a cell in edge order; edge e runs from corner
# e to corner (e + 1) % 4.
_DI = np.array([0, 1, 1, 0])
_DK = np.array([0, 0, 1, 1])


def _edge_ids(nx: int, ny: int) -> np.ndarray:
    """Grid-edge id of each cell edge, (nx-1, ny-1, 4) in edge order.

    Edge (i, k)-(i+1, k) has id i*ny + k; edge (i, k)-(i, k+1) has id
    (nx-1)*ny + i*(ny-1) + k.
    """
    along_x = np.arange(nx - 1)[:, None] * ny + np.arange(ny)
    along_y = (nx - 1) * ny + np.arange(nx)[:, None] * (ny - 1) + np.arange(ny - 1)
    return np.stack([along_x[:, :-1], along_y[1:], along_x[:, 1:], along_y[:-1]], axis=-1)


def _segments(x, y, Zs, level):
    """Crossing points (px, py), their grid-edge ids, and the crossing index
    of each segment's two ends (ia, ib), in segment order."""
    d = Zs - level
    crossed = np.stack([d[:-1, :-1] * d[1:, :-1], d[1:, :-1] * d[1:, 1:],
                        d[1:, 1:] * d[:-1, 1:], d[:-1, 1:] * d[:-1, :-1]], axis=-1) < 0.0
    count = crossed.sum(axis=-1)
    crossed &= ((count == 2) | (count == 4))[..., None]
    ci, ck, ce = np.nonzero(crossed)
    i1, k1 = ci + _DI[ce], ck + _DK[ce]
    nxt = (ce + 1) % 4
    i2, k2 = ci + _DI[nxt], ck + _DK[nxt]
    v1, v2 = Zs[i1, k1], Zs[i2, k2]
    s = (level - v1) / (v2 - v1)
    px = x[i1] + s * (x[i2] - x[i1])
    py = y[k1] + s * (y[k2] - y[k1])
    eid = _edge_ids(*Zs.shape)[ci, ck, ce]

    # Every kept cell has an even number of crossings, so pairing them in
    # order gives each two-crossing cell its segment and each saddle cell
    # the pairs (0, 1), (2, 3); saddles whose centre lies on the side of
    # corner (i, k) take (0, 3), (1, 2) instead.
    ia = np.arange(0, ce.size, 2)
    ib = ia + 1
    saddle = count == 4
    z00, z10, z01, z11 = (Zs[:-1, :-1][saddle], Zs[1:, :-1][saddle],
                          Zs[:-1, 1:][saddle], Zs[1:, 1:][saddle])
    center = 0.25 * (z00 + z10 + z01 + z11)
    first = np.flatnonzero((count[ci, ck] == 4) & (ce == 0))
    o = first[(center - level) * (z00 - level) >= 0.0]
    ib[o // 2], ia[o // 2 + 1], ib[o // 2 + 1] = o + 3, o + 1, o + 2
    return px, py, eid, ia, ib


def _chain(ends, edges):
    """Join segments into polylines (greedy, deterministic).

    `ends` holds the segment end points, end 0 of segment s at 2s and end 1
    at 2s + 1, and `edges` the grid-edge id of each end.  Starting from the
    first unused segment, the walk extends the line from its last point,
    then from its first, through the other end on the same grid edge while
    that end's segment is unused.
    """
    order = np.argsort(edges, kind="stable")
    same = edges[order[1:]] == edges[order[:-1]]
    partner = np.full(edges.size, -1)
    partner[order[:-1][same]] = order[1:][same]
    partner[order[1:][same]] = order[:-1][same]
    partner = partner.tolist()

    used = [False] * (len(ends) // 2)
    polylines = []
    for start in range(len(used)):
        if used[start]:
            continue
        used[start] = True
        walks = []
        for end in (2 * start + 1, 2 * start):
            walk = []
            while (q := partner[end]) >= 0 and not used[q // 2]:
                used[q // 2] = True
                end = q ^ 1
                walk.append(ends[end])
            walks.append(walk)
        head, tail = walks
        polylines.append(tail[::-1] + [ends[2 * start], ends[2 * start + 1]] + head)
    return polylines


def iso_contours(x: np.ndarray, y: np.ndarray, Z: np.ndarray, level: float):
    """Polylines where the node-sampled surface Z crosses `level`.

    x, y are the grid coordinate vectors and Z ((len(x), len(y))) the values;
    returns a list of lists of (x, y) float tuples.  Nodes exactly on the
    level are nudged by a relative epsilon so every crossing is transversal.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (len(x), len(y)):
        raise ValueError(f"Z shape {Z.shape} does not match grid {(len(x), len(y))}")
    scale = np.abs(Z).max() or 1.0
    Zs = np.where(Z == level, Z + 1e-14 * scale, Z)
    px, py, eid, ia, ib = _segments(np.asarray(x, dtype=float),
                                    np.asarray(y, dtype=float), Zs, level)
    ends = np.stack([ia, ib], axis=-1).ravel()
    return _chain(list(zip(px[ends].tolist(), py[ends].tolist())), eid[ends])


def level_bands(values: np.ndarray, n_levels: int = 10) -> np.ndarray:
    """Evenly spaced interior levels between min and max of the field."""
    lo, hi = float(np.min(values)), float(np.max(values))
    return lo + (hi - lo) * (np.arange(1, n_levels + 1)) / (n_levels + 1)
