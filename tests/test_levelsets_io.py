import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hingedplate import PlateConfig, QuadratureGrid, evaluate_on_grid, uniform_density
from hingedplate.io import (
    RunManifest,
    read_density_csv,
    write_grid_csv,
    write_reports_json,
    write_trace_csv,
)
from hingedplate.levelsets import _segments, iso_contours, level_bands


# Per-cell marching squares and coordinate-keyed chaining: the reference the
# vectorized iso_contours must reproduce bit for bit.

def _ref_interp(p1, p2, v1, v2, level):
    s = (level - v1) / (v2 - v1)
    return (p1[0] + s * (p2[0] - p1[0]), p1[1] + s * (p2[1] - p1[1]))


def _ref_cell_segments(x0, x1, y0, y1, z00, z10, z01, z11, level):
    """Zero to two crossing segments of one grid cell."""
    corners = [
        ((x0, y0), z00), ((x1, y0), z10), ((x1, y1), z11), ((x0, y1), z01),
    ]
    crossings = []
    for e in range(4):
        (p1, v1), (p2, v2) = corners[e], corners[(e + 1) % 4]
        if (v1 - level) * (v2 - level) < 0.0:
            crossings.append((e, _ref_interp(p1, p2, v1, v2, level)))
    if len(crossings) == 2:
        return [(crossings[0][1], crossings[1][1])]
    if len(crossings) == 4:
        center = 0.25 * (z00 + z10 + z01 + z11)
        pts = [c[1] for c in crossings]
        if (center - level) * (z00 - level) >= 0.0:
            return [(pts[0], pts[3]), (pts[1], pts[2])]
        return [(pts[0], pts[1]), (pts[2], pts[3])]
    return []


def _ref_key(p, decimals=12):
    return (round(p[0], decimals), round(p[1], decimals))


def _ref_chain(segments):
    """Join segments sharing endpoints into polylines (greedy, deterministic)."""
    seg_ends = {}
    for idx, (a, b) in enumerate(segments):
        seg_ends.setdefault(_ref_key(a), []).append((idx, 0))
        seg_ends.setdefault(_ref_key(b), []).append((idx, 1))
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        line = [a, b]
        for head in (1, 0):
            while True:
                k = _ref_key(line[-1 if head else 0])
                nxt = next(((i, e) for i, e in seg_ends.get(k, []) if not used[i]), None)
                if nxt is None:
                    break
                i, e = nxt
                used[i] = True
                p = segments[i][1 - e]
                if head:
                    line.append(p)
                else:
                    line.insert(0, p)
        polylines.append(line)
    return polylines


def _nudged(Z, level):
    scale = np.abs(Z).max() or 1.0
    return np.where(Z == level, Z + 1e-14 * scale, Z)


def _ref_segments(x, y, Z, level):
    Zs = _nudged(Z, level)
    segments = []
    for i in range(len(x) - 1):
        for k in range(len(y) - 1):
            segments.extend(_ref_cell_segments(
                x[i], x[i + 1], y[k], y[k + 1],
                Zs[i, k], Zs[i + 1, k], Zs[i, k + 1], Zs[i + 1, k + 1], level,
            ))
    return segments


def _ref_iso_contours(x, y, Z, level):
    return _ref_chain(_ref_segments(x, y, Z, level))


def _rounded_key_names_edges(x, y, Z, level):
    """Whether the reference's rounded key maps the crossings it emits one to
    one onto the grid edges they lie on (the two copies of a crossing, one
    from each cell sharing its edge, rounding alike)."""
    Zs = _nudged(Z, level)
    edges_of_key, keys_of_edge = {}, {}
    for i in range(len(x) - 1):
        for k in range(len(y) - 1):
            nodes = [(i, k), (i + 1, k), (i + 1, k + 1), (i, k + 1)]
            found = []
            for e in range(4):
                a, b = nodes[e], nodes[(e + 1) % 4]
                if (Zs[a] - level) * (Zs[b] - level) < 0.0:
                    p = _ref_interp((x[a[0]], y[a[1]]), (x[b[0]], y[b[1]]), Zs[a], Zs[b], level)
                    found.append((frozenset((a, b)), _ref_key(p)))
            if len(found) in (2, 4):
                for edge, key in found:
                    edges_of_key.setdefault(key, set()).add(edge)
                    keys_of_edge.setdefault(edge, set()).add(key)
    return all(len(v) == 1 for v in (*edges_of_key.values(), *keys_of_edge.values()))


def _assert_matches_reference(x, y, Z, level):
    new = iso_contours(x, y, Z, level)
    px, py, _, ia, ib = _segments(np.asarray(x, float), np.asarray(y, float),
                                  _nudged(Z, level), level)
    segs = [((px[a], py[a]), (px[b], py[b])) for a, b in zip(ia, ib)]
    assert segs == _ref_segments(x, y, Z, level)
    ref = _ref_iso_contours(x, y, Z, level)
    if _rounded_key_names_edges(x, y, Z, level):
        assert new == ref
    else:
        # the rounded key joined crossings of different edges, or left the
        # two copies of one crossing apart; the same segments are chained,
        # and each vertex is one of the reference's up to rounding
        assert sum(len(line) - 1 for line in new) == len(segs)
        a = np.array([p for line in new for p in line])
        b = np.array([p for line in ref for p in line])
        for u, v in ((a, b), (b, a)):
            gap = np.abs(u[:, None, :] - v[None, :, :]).max(axis=-1).min(axis=1)
            assert gap.max() <= 1e-12
    return new


def test_contour_of_linear_field_is_vertical_line():
    x = np.linspace(0.0, 1.0, 21)
    y = np.linspace(0.0, 1.0, 13)
    Z = np.broadcast_to(x[:, None], (21, 13)).copy()
    for level in (0.25, 0.5, 0.77):
        lines = iso_contours(x, y, Z, level)
        pts = np.array([p for line in lines for p in line])
        assert pts.size > 0
        assert np.abs(pts[:, 0] - level).max() < 1e-12


def test_contour_of_radial_field_is_circle():
    x = np.linspace(-1.0, 1.0, 81)
    y = np.linspace(-1.0, 1.0, 81)
    X, Y = np.meshgrid(x, y, indexing="ij")
    Z = X ** 2 + Y ** 2
    r = 0.6
    lines = iso_contours(x, y, Z, r ** 2)
    pts = np.array([p for line in lines for p in line])
    radii = np.hypot(pts[:, 0], pts[:, 1])
    assert abs(radii.mean() - r) < 1e-3
    assert np.abs(radii - r).max() < 2e-3  # one-cell interpolation error
    # chaining produced one long closed loop rather than scattered segments
    assert max(len(line) for line in lines) > 100


def test_contour_level_outside_range_empty():
    x = np.linspace(0, 1, 5)
    y = np.linspace(0, 1, 5)
    Z = np.zeros((5, 5))
    assert iso_contours(x, y, Z, 1.0) == []


def test_iso_contours_match_reference_on_eigenfunction_bands(default_system,
                                                            default_uniform_pair):
    grid = default_system.grid
    u = evaluate_on_grid(default_uniform_pair.u, grid).values
    for level in level_bands(u, 10):
        assert _rounded_key_names_edges(grid.nodes_x, grid.nodes_y, u, level)
        lines = _assert_matches_reference(grid.nodes_x, grid.nodes_y, u, level)
        assert lines and all(type(c) is float for line in lines for p in line for c in p)


def test_iso_contours_match_reference_on_checkerboard_saddles():
    x = np.linspace(0.0, 1.0, 9)
    y = np.linspace(0.0, 1.0, 7)
    Z = (-1.0) ** np.add.outer(np.arange(9), np.arange(7)) + 0.3 * np.add.outer(x, y)
    for level in (0.0, 0.3, 0.55, -0.2):
        _assert_matches_reference(x, y, Z, level)
    # level 0.3 puts every cell's centre above the level: saddle cells whose
    # corner (i, k) lies above take pairs (0, 3), (1, 2), the others (0, 1), (2, 3)
    branches = set()
    for i in range(8):
        for k in range(6):
            segs = _ref_cell_segments(x[i], x[i + 1], y[k], y[k + 1], Z[i, k],
                                      Z[i + 1, k], Z[i, k + 1], Z[i + 1, k + 1], 0.3)
            if len(segs) == 2:
                branches.add(Z[i, k] > 0.3)
    assert branches == {True, False}


def test_iso_contours_match_reference_with_nodes_on_the_level():
    # a whole column of nodes lies on each level and is nudged above it
    x = np.linspace(0.0, 1.0, 21)
    y = np.linspace(0.0, 1.0, 13)
    Z = np.broadcast_to(x[:, None], (21, 13)) + 0.0 * y
    for level in (x[5], x[10], x[16]):
        assert np.any(Z == level)
        assert _rounded_key_names_edges(x, y, Z, level)
        _assert_matches_reference(x, y, Z, level)


def test_iso_contours_join_crossings_next_to_a_node_by_edge():
    # one node on the level: its nudge puts crossings on two of its edges
    # within 1e-14 of each other, which the reference's rounded key merges
    # into one; iso_contours joins the ends on each edge
    x = np.linspace(0.0, 1.0, 11)
    y = np.linspace(0.0, 1.0, 9)
    Z = np.add.outer(x, 0.37 * y)
    level = Z[4, 3]
    assert not _rounded_key_names_edges(x, y, Z, level)
    lines = _assert_matches_reference(x, y, Z, level)
    assert len(lines) == 1


def test_iso_contours_of_flat_field_empty():
    x = np.linspace(0.0, 1.0, 6)
    y = np.linspace(0.0, 1.0, 4)
    for value, level in ((0.0, 0.0), (2.5, 2.5), (2.5, 1.0)):
        Z = np.full((6, 4), value)
        assert iso_contours(x, y, Z, level) == [] == _ref_iso_contours(x, y, Z, level)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nx=st.integers(1, 9), ny=st.integers(1, 9), data=st.data())
def test_iso_contours_match_reference_on_random_fields(nx, ny, data):
    values = st.floats(-1.0, 1.0, allow_nan=False)
    Z = np.array(data.draw(st.lists(values, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    x = np.cumsum(data.draw(st.lists(st.floats(0.01, 1.0), min_size=nx, max_size=nx)))
    y = np.cumsum(data.draw(st.lists(st.floats(0.01, 1.0), min_size=ny, max_size=ny)))
    level = data.draw(st.one_of(values, st.sampled_from(Z.ravel().tolist())))
    _assert_matches_reference(x, y, Z, level)


def test_level_bands_interior():
    vals = np.array([0.0, 10.0])
    bands = level_bands(vals, 10)
    assert len(bands) == 10
    assert bands[0] > 0.0 and bands[-1] < 10.0
    assert np.allclose(np.diff(bands), bands[1] - bands[0])


def test_density_csv_roundtrip(tmp_path):
    cfg = PlateConfig(n_modes_x=8, n_basis_y=8, n_quad_x=16, n_quad_y=8)
    grid = QuadratureGrid.from_config(cfg)
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 3.0, size=grid.shape)
    path = tmp_path / "density.csv"
    write_grid_csv(path, grid, vals, value_name="p")
    back = read_density_csv(path, grid)
    assert np.array_equal(back, vals)  # repr round trip is exact


def test_grid_csv_matches_csv_writer_reference(tmp_path):
    grid = QuadratureGrid(nodes_x=np.array([-0.0, 5e-324, 1.0, 1e300]), weights_x=np.ones(4),
                          nodes_y=np.array([-2.0, 0.0, 0.1]), weights_y=np.ones(3), ell=1.0)
    cases = [
        np.array([[-0.0, 5e-324, 1e300], [3.0, -2.0, 0.0],
                  [1.0 / 3.0, -1e-300, 2.0 ** 53], [np.inf, -np.inf, np.nan]]),
        np.arange(12).reshape(4, 3),     # integers are written as floats
        np.linspace(-1.0, 1.0, 12, dtype=np.float32),
    ]
    X, Y = grid.meshgrid()
    for values in cases:
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_grid_csv(path, grid, values, value_name="p")
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "p"])
            for xi, yi, vi in zip(X.ravel(), Y.ravel(), np.asarray(values).ravel()):
                writer.writerow([repr(float(xi)), repr(float(yi)), repr(float(vi))])
        assert path.read_bytes() == ref.read_bytes()


def test_density_csv_rejects_wrong_grid(tmp_path):
    cfg = PlateConfig(n_modes_x=8, n_basis_y=8, n_quad_x=16, n_quad_y=8)
    grid = QuadratureGrid.from_config(cfg)
    write_grid_csv(tmp_path / "d.csv", grid, np.ones(grid.shape), value_name="p")
    other = QuadratureGrid.from_config(PlateConfig(n_modes_x=8, n_basis_y=8, n_quad_x=16, n_quad_y=8, ell=1.0))
    with pytest.raises(ValueError, match="do not match"):
        read_density_csv(tmp_path / "d.csv", other)
    smaller = QuadratureGrid.from_config(PlateConfig(n_modes_x=8, n_basis_y=8, n_quad_x=8, n_quad_y=8))
    with pytest.raises(ValueError, match="rows"):
        read_density_csv(tmp_path / "d.csv", smaller)


def test_writers_are_deterministic(tmp_path, small_system):
    from hingedplate import minimize

    trace = minimize(small_system.cfg,
                     uniform_density(small_system.grid, small_system.rule),
                     system=small_system)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(a, trace)
    write_trace_csv(b, trace)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "iter,lambda1,threshold_t,S_measure,density_change_measure"


def test_reports_json_shape(tmp_path, default_cfg):
    from hingedplate.series import certify_series

    reports = certify_series(default_cfg, grid_points=49, terms=2000)
    path = tmp_path / "reports.json"
    write_reports_json(path, reports)
    loaded = json.loads(path.read_text())
    assert isinstance(loaded, list)
    for entry in loaded:
        assert set(entry) == {"claim_id", "statement", "probe_count",
                              "min_margin", "resolution", "pass"}


def test_manifest_appends(tmp_path):
    cfg = PlateConfig()
    m1 = RunManifest("solve", cfg, tmp_path)
    (tmp_path / "x.csv").write_text("x\n")
    m1.register(tmp_path / "x.csv")
    m1.write()
    m2 = RunManifest("solve", cfg, tmp_path)
    m2.write()
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["command"] == "solve"
    assert rec["outputs"] == ["x.csv"]
    assert "wall_clock_seconds" in rec and "version" in rec
