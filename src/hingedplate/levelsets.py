"""Iso-level polyline extraction on a rectilinear grid (marching squares).

All levels of one field are extracted in one pass.  A cell can only be
crossed at a level inside its corner range, min(Z) <= level <= max(Z)
(NaN corners left out, as the crossing test leaves them out): the nudge
below only lifts a node lying on the level, so an edge crossed after it
still joins a node below the level to one at or above it.  The range
screens all cells once for every level, and only the screened (level,
cell) pairs get the crossing test.

A cell's corners are taken in the order (i, k), (i+1, k), (i+1, k+1),
(i, k+1), and edge e runs from corner e to corner e+1 (mod 4).  An edge is
crossed when its end values lie strictly on either side of the level; the
crossing is interpolated along the edge in that direction.  A cell with two
crossings gives one segment, a saddle cell (four crossings) two, joined by
the sign of the centre value 0.25 (z00 + z10 + z01 + z11) against corner
(i, k); any other count gives none.  Segments are listed level by level,
within a level cell by cell, i then k, and within a cell in edge order.

Chaining joins segment ends of one level by the integer id of the grid
edge they lie on.  An edge is crossed at most once per level and belongs
to at most two cells, so each edge holds at most two segment ends of a
level and the greedy walk has at most one way on.  The two cells sharing
an edge interpolate its crossing in opposite directions, so their copies
can differ in the last bits; the vertex kept is the copy of the segment
the walk reached first.  Keying ends by their coordinates rounded to 12
decimals makes the same joins as long as that key names one edge's
crossing: it does unless two crossings lie within about 1e-12 of each
other (a node nudged onto the level gives two such crossings on its edges)
or one crossing's two copies round apart.  In those cases the rounded key
joins ends of different edges, or leaves one crossing's two ends unjoined;
the edge id joins exactly the ends that meet.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

# Corner offsets (di, dk) of a cell in edge order; edge e runs from corner
# e to corner (e + 1) % 4.
_DI = np.array([0, 1, 1, 0])
_DK = np.array([0, 0, 1, 1])


def _segments(x, y, Z, levels):
    """Crossings of all levels: points (px, py), the chaining key of each
    (level index * number of grid edges + grid-edge id), the crossing index
    of each segment's two ends (ia, ib) and each segment's level index, in
    segment order.  Nodes on a level are nudged up by 1e-14 * max|Z|.

    Edge (i, k)-(i+1, k) has grid-edge id i*ny + k; edge (i, k)-(i, k+1)
    has id (nx-1)*ny + i*(ny-1) + k.
    """
    nx, ny = Z.shape
    scale = np.abs(Z).max() or 1.0
    z00, z10, z11, z01 = Z[:-1, :-1], Z[1:, :-1], Z[1:, 1:], Z[:-1, 1:]
    lo = np.fmin(np.fmin(z00, z10), np.fmin(z11, z01)).ravel()
    hi = np.fmax(np.fmax(z00, z10), np.fmax(z11, z01)).ravel()
    lv, cell = np.nonzero((lo <= levels[:, None]) & (levels[:, None] <= hi))
    ci, ck = np.divmod(cell, ny - 1)
    level = levels[lv][:, None]
    zc = Z[ci[:, None] + _DI, ck[:, None] + _DK]
    Zs = np.where(zc == level, zc + 1e-14 * scale, zc)
    d = Zs - level
    crossed = d * d[:, [1, 2, 3, 0]] < 0.0
    count = crossed.sum(axis=-1)
    crossed &= ((count == 2) | (count == 4))[:, None]
    cp, ce = np.nonzero(crossed)
    i1, k1 = ci[cp] + _DI[ce], ck[cp] + _DK[ce]
    nxt = (ce + 1) % 4
    i2, k2 = ci[cp] + _DI[nxt], ck[cp] + _DK[nxt]
    v1, v2 = Zs[cp, ce], Zs[cp, nxt]
    s = (level[cp, 0] - v1) / (v2 - v1)
    px = x[i1] + s * (x[i2] - x[i1])
    py = y[k1] + s * (y[k2] - y[k1])
    edge = np.where(k1 == k2, np.minimum(i1, i2) * ny + k1,
                    (nx - 1) * ny + i1 * (ny - 1) + np.minimum(k1, k2))
    key = lv[cp] * ((nx - 1) * ny + nx * (ny - 1)) + edge

    # Every kept cell has an even number of crossings, so pairing them in
    # order gives each two-crossing cell its segment and each saddle cell
    # the pairs (0, 1), (2, 3); saddles whose centre lies on the side of
    # corner (i, k) take (0, 3), (1, 2) instead.
    ia = np.arange(0, ce.size, 2)
    ib = ia + 1
    saddle = count == 4
    z00, z10, z11, z01 = Zs[saddle].T
    at = level[saddle, 0]
    center = 0.25 * (z00 + z10 + z01 + z11)
    first = np.flatnonzero(saddle[cp] & (ce == 0))
    o = first[(center - at) * (z00 - at) >= 0.0]
    ib[o // 2], ia[o // 2 + 1], ib[o // 2 + 1] = o + 3, o + 1, o + 2
    return px, py, key, ia, ib, lv[cp[ia]]


def _chain(keys, seg_levels):
    """Join segments into polylines (greedy, deterministic).

    End 0 of segment s is end 2s and end 1 is end 2s + 1; `keys` holds the
    chaining key of each end and `seg_levels` the level index of each
    segment.  Starting from the first unused segment, the walk extends the
    line from its last end, then from its first, through the other end with
    the same key while that end's segment is unused.  Returns the ends of
    all lines, line after line, and the (level index of its first segment,
    length) of each line.
    """
    order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    partner = np.full(keys.size, -1)
    partner[order[:-1][same]] = order[1:][same]
    partner[order[1:][same]] = order[:-1][same]
    partner = partner.tolist()

    used = [False] * len(seg_levels)
    ends, lines = [], []
    for start, lv in enumerate(seg_levels):
        if used[start]:
            continue
        used[start] = True
        walks = []
        for end in (2 * start + 1, 2 * start):
            walk = []
            while (q := partner[end]) >= 0 and not used[q // 2]:
                used[q // 2] = True
                end = q ^ 1
                walk.append(end)
            walks.append(walk)
        head, tail = walks
        line = tail[::-1] + [2 * start, 2 * start + 1] + head
        ends += line
        lines.append((lv, len(line)))
    return ends, lines


def iso_contours(x: np.ndarray, y: np.ndarray, Z: np.ndarray, levels):
    """Polylines where the node-sampled surface Z crosses each of `levels`.

    x, y are the grid coordinate vectors, Z ((len(x), len(y))) the values
    and `levels` a 1-D sequence; returns one list of polylines per level,
    each polyline a list of (x, y) float tuples.  Nodes exactly on a level
    are nudged by a relative epsilon so every crossing is transversal.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (len(x), len(y)):
        raise ValueError(f"Z shape {Z.shape} does not match grid {(len(x), len(y))}")
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1:
        raise ValueError(f"levels must be a 1-D sequence, got shape {levels.shape}")
    px, py, key, ia, ib, seg_levels = _segments(np.asarray(x, dtype=float),
                                                np.asarray(y, dtype=float), Z, levels)
    crossing = np.stack([ia, ib], axis=-1).ravel()
    ends, lines = _chain(key[crossing], seg_levels.tolist())
    vertex = crossing[np.asarray(ends, dtype=int)]
    points = zip(px[vertex].tolist(), py[vertex].tolist())
    per_level = [[] for _ in range(levels.size)]
    for lv, n in lines:
        per_level[lv].append(list(islice(points, n)))
    return per_level


def level_bands(values: np.ndarray, n_levels: int) -> np.ndarray:
    """Evenly spaced interior levels between min and max of the field."""
    lo, hi = float(np.min(values)), float(np.max(values))
    return lo + (hi - lo) * (np.arange(1, n_levels + 1)) / (n_levels + 1)
