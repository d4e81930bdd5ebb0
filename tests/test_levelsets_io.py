import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hingedplate import PlateConfig, QuadratureGrid, uniform_density
from hingedplate.io import (
    _BLOCK,
    RunManifest,
    read_density_csv,
    write_contours_csv,
    write_eigensolve_csv,
    write_grid_csv,
    write_reports_json,
    write_trace_csv,
    write_vector_csv,
)
from hingedplate.levelsets import _segments, iso_contours, level_bands
from hingedplate.optimize import OptimizationTrace, TraceRecord


# Per-cell marching squares and coordinate-keyed chaining, one level at a
# time: the reference the all-levels iso_contours must reproduce bit for bit.

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


def _assert_matches_reference(x, y, Z, levels):
    """One iso_contours call for all levels, checked level by level against
    the per-cell reference; returns the polylines of each level."""
    new = iso_contours(x, y, Z, levels)
    assert len(new) == len(levels)
    px, py, _, ia, ib, seg_levels = _segments(
        np.asarray(x, float), np.asarray(y, float), np.asarray(Z, float), np.asarray(levels, float))
    for n, (level, lines) in enumerate(zip(levels, new)):
        mine = seg_levels == n
        segs = [((px[a], py[a]), (px[b], py[b])) for a, b in zip(ia[mine], ib[mine])]
        assert segs == _ref_segments(x, y, Z, level)
        ref = _ref_iso_contours(x, y, Z, level)
        if _rounded_key_names_edges(x, y, Z, level):
            assert lines == ref
        else:
            # the rounded key joined crossings of different edges, or left the
            # two copies of one crossing apart; the same segments are chained,
            # and each vertex is one of the reference's up to rounding
            assert sum(len(line) - 1 for line in lines) == len(segs)
            a = np.array([p for line in lines for p in line])
            b = np.array([p for line in ref for p in line])
            for u, v in ((a, b), (b, a)):
                gap = np.abs(u[:, None, :] - v[None, :, :]).max(axis=-1).min(axis=1)
                assert gap.max() <= 1e-12
    return new


def test_contour_of_linear_field_is_vertical_line():
    x = np.linspace(0.0, 1.0, 21)
    y = np.linspace(0.0, 1.0, 13)
    Z = np.broadcast_to(x[:, None], (21, 13)).copy()
    levels = (0.25, 0.5, 0.77)
    for level, lines in zip(levels, iso_contours(x, y, Z, levels)):
        pts = np.array([p for line in lines for p in line])
        assert pts.size > 0
        assert np.abs(pts[:, 0] - level).max() < 1e-12


def test_contour_of_radial_field_is_circle():
    x = np.linspace(-1.0, 1.0, 81)
    y = np.linspace(-1.0, 1.0, 81)
    X, Y = np.meshgrid(x, y, indexing="ij")
    Z = X ** 2 + Y ** 2
    r = 0.6
    [lines] = iso_contours(x, y, Z, [r ** 2])
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
    assert iso_contours(x, y, Z, [1.0]) == [[]]
    # levels beyond the field's range give [] beside one inside it
    Z = np.add.outer(x, y)
    outside = [-1.0, 2.5, np.inf, -np.inf, np.nan, -1e-300, 2.0 + 1e-15]
    lines = _assert_matches_reference(x, y, Z, outside[:3] + [0.7] + outside[3:])
    assert lines[3] and all(not lv for lv in lines[:3] + lines[4:])
    assert iso_contours(x, y, Z, []) == []


def test_iso_contours_levels_must_be_one_dimensional():
    x = np.linspace(0, 1, 5)
    Z = np.add.outer(x, x)
    with pytest.raises(ValueError, match="1-D"):
        iso_contours(x, x, Z, 0.5)
    with pytest.raises(ValueError, match="1-D"):
        iso_contours(x, x, Z, [[0.5]])


def test_iso_contours_match_reference_on_eigenfunction_bands(default_system,
                                                            default_uniform_pair):
    grid = default_system.grid
    u = default_system.grid_values(default_uniform_pair.u)
    levels = level_bands(u, 10)
    for level in levels:
        assert _rounded_key_names_edges(grid.nodes_x, grid.nodes_y, u, level)
    for lines in _assert_matches_reference(grid.nodes_x, grid.nodes_y, u, levels):
        assert lines and all(type(c) is float for line in lines for p in line for c in p)


def test_iso_contours_match_reference_on_checkerboard_saddles():
    x = np.linspace(0.0, 1.0, 9)
    y = np.linspace(0.0, 1.0, 7)
    Z = (-1.0) ** np.add.outer(np.arange(9), np.arange(7)) + 0.3 * np.add.outer(x, y)
    _assert_matches_reference(x, y, Z, [0.0, 0.3, 0.55, -0.2])
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
    levels = [x[5], x[10], x[16]]
    for level in levels:
        assert np.any(Z == level)
        assert _rounded_key_names_edges(x, y, Z, level)
    _assert_matches_reference(x, y, Z, levels)


def test_iso_contours_join_crossings_next_to_a_node_by_edge():
    # one node on the level: its nudge puts crossings on two of its edges
    # within 1e-14 of each other, which the reference's rounded key merges
    # into one; iso_contours joins the ends on each edge
    x = np.linspace(0.0, 1.0, 11)
    y = np.linspace(0.0, 1.0, 9)
    Z = np.add.outer(x, 0.37 * y)
    level = Z[4, 3]
    assert not _rounded_key_names_edges(x, y, Z, level)
    [lines] = _assert_matches_reference(x, y, Z, [level])
    assert len(lines) == 1


def test_iso_contours_of_flat_field_empty():
    x = np.linspace(0.0, 1.0, 6)
    y = np.linspace(0.0, 1.0, 4)
    for value, level in ((0.0, 0.0), (2.5, 2.5), (2.5, 1.0)):
        Z = np.full((6, 4), value)
        assert iso_contours(x, y, Z, [level]) == [[]]
        assert _ref_iso_contours(x, y, Z, level) == []


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nx=st.integers(1, 9), ny=st.integers(1, 9), data=st.data())
def test_iso_contours_match_reference_on_random_fields(nx, ny, data):
    values = st.floats(-1.0, 1.0, allow_nan=False)
    Z = np.array(data.draw(st.lists(values, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    x = np.cumsum(data.draw(st.lists(st.floats(0.01, 1.0), min_size=nx, max_size=nx)))
    y = np.cumsum(data.draw(st.lists(st.floats(0.01, 1.0), min_size=ny, max_size=ny)))
    levels = data.draw(st.lists(st.one_of(values, st.sampled_from(Z.ravel().tolist())),
                                min_size=1, max_size=5))
    lines = _assert_matches_reference(x, y, Z, levels)
    # each level's polylines do not depend on the other levels of the call
    assert lines == [iso_contours(x, y, Z, [level])[0] for level in levels]


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
    small = QuadratureGrid(nodes_x=np.array([-0.0, 5e-324, 1.0, 1e300]), weights_x=np.ones(4),
                           nodes_y=np.array([-2.0, 0.0, 0.1]), weights_y=np.ones(3))
    wide = QuadratureGrid(nodes_x=np.linspace(0.0, np.pi, 70), weights_x=np.ones(70),
                          nodes_y=np.array([-0.5, -0.0, 1.0 / 3.0]), weights_y=np.ones(3))
    nx = 2 * _BLOCK // 3 + 2  # 3 * nx rows: more than two of the writer's blocks
    tall = QuadratureGrid(nodes_x=np.linspace(0.0, np.pi, nx), weights_x=np.ones(nx),
                          nodes_y=np.array([-0.5, -0.0, 1.0 / 3.0]), weights_y=np.ones(3))
    cases = [
        (small, np.array([[-0.0, 5e-324, 1e300], [3.0, -2.0, 0.0],
                          [1.0 / 3.0, -1e-300, 2.0 ** 53], [np.inf, -np.inf, np.nan]])),
        (small, np.arange(12).reshape(4, 3)),     # integers are written as floats
        (small, np.linspace(-1.0, 1.0, 12, dtype=np.float32)),
        (wide, np.resize(np.array(_SPECIAL), (70, 3))),
        (wide, np.random.default_rng(5).standard_normal((70, 3))),
        (tall, np.resize(np.array(_SPECIAL), (nx, 3))),
        (tall, np.random.default_rng(5).standard_normal((nx, 3))),
    ]
    assert _crosses_blocks(tall.nodes_x.size * tall.nodes_y.size)
    for grid, values in cases:
        X, Y = grid.meshgrid()
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_grid_csv(path, grid, values, value_name="p")
        with open(ref, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "p"])
            for xi, yi, vi in zip(X.ravel(), Y.ravel(), np.asarray(values).ravel()):
                writer.writerow([repr(float(xi)), repr(float(yi)), repr(float(vi))])
        assert path.read_bytes() == ref.read_bytes()


# Values whose repr is easy to get wrong: -0.0 beside 0.0 (equal under ==,
# different text), subnormals, infinities and NaNs of different bits.
_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, np.inf, -np.inf, np.nan, -np.nan,
            np.array(0x7FF8000000000001).view(float).item(), 1.0 / 3.0, 2.0 ** 53]


def _crosses_blocks(n_rows: int) -> bool:
    """More rows than two of the writer's blocks hold, the last block partial."""
    return n_rows > 2 * _BLOCK and n_rows % _BLOCK != 0


def _write_reference(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_vector_csv_matches_csv_writer_reference(tmp_path):
    cases = [
        np.array(_SPECIAL + _SPECIAL[::-1]),
        np.arange(5),                      # integers are written as floats
        np.linspace(-1.0, 1.0, 7, dtype=np.float32),
        np.array([[1.5, -0.0], [0.0, 1.5]]),
        np.zeros(0),
        np.resize(np.array(_SPECIAL), 2 * _BLOCK + 5),
        np.random.default_rng(7).standard_normal(2 * _BLOCK + 5),
    ]
    assert _crosses_blocks(cases[-1].size)
    for values in cases:
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_vector_csv(path, "coefficient", values)
        _write_reference(ref, ["index", "coefficient"],
                         [[i, repr(float(v))] for i, v in enumerate(np.ravel(values))])
        assert path.read_bytes() == ref.read_bytes()


def test_contours_csv_matches_csv_writer_reference(tmp_path):
    x = np.linspace(0.0, 1.0, 9)
    Z = np.add.outer(np.sin(3.0 * x), x ** 2)
    field_levels = level_bands(Z, 4)
    long_xy = np.resize(np.array(_SPECIAL), (2 * _BLOCK + 10, 2))
    long_xy[::3] = np.random.default_rng(3).standard_normal(long_xy[::3].shape)
    cases = [
        ([-0.0, 0.5, 1e300, np.nan, np.inf, 5e-324], [
            [[(-0.0, 0.0), (0.0, -0.0)]],                    # a two-vertex polyline
            [],                                              # an empty level
            [[(5e-324, 1e300), (np.inf, -np.inf), (np.nan, -np.nan)], [],
             [(1.0, 2.0), (1.0, 2.0)]],
            [[(np.float64(0.1), np.float64(0.2)), (0.3, 0.4), (0.1, 0.2)]],
            [],
            [[(-5e-324, 2.0 ** 53), (1.0 / 3.0, 0.0)]],
        ]),
        (field_levels, iso_contours(x, x, Z, field_levels)),
        ([], []),
        # polylines that run across the writer's block ends
        ([0.25, -0.0], [[long_xy[:_BLOCK + 3].tolist(), long_xy[_BLOCK + 3:_BLOCK + 10]],
                        [[], list(map(tuple, long_xy[_BLOCK + 10:]))]]),
    ]
    assert _crosses_blocks(len(long_xy))
    for levels, polylines_per_level in cases:
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_contours_csv(path, levels, polylines_per_level)
        _write_reference(ref, ["level", "polyline", "vertex", "x", "y"], [
            [repr(float(level)), pid, vid, repr(float(px)), repr(float(py))]
            for level, polylines in zip(levels, polylines_per_level)
            for pid, line in enumerate(polylines)
            for vid, (px, py) in enumerate(line)])
        assert path.read_bytes() == ref.read_bytes()


def _special_trace(repeats: int = 1) -> OptimizationTrace:
    """Records whose float fields run through _SPECIAL `repeats` times; row 0
    has the NaN density change of a start, and the gaps end with the
    infinite gap of dimension 1."""
    values, gaps = (_SPECIAL + [1.5, 0.5]) * repeats, (_SPECIAL + [np.inf, 0.25]) * repeats
    records = [
        TraceRecord(iteration=i, lambda1=v, threshold_t=t, sublevel_measure=np.float64(v),
                    density_change_measure=np.nan if i == 0 else v,
                    solve_iterations=i % 3, residual=v, gap=gap)
        for i, (v, t, gap) in enumerate(zip(values, values[::-1], gaps))]
    return OptimizationTrace(records=records, status="max_iter", final_density=None,
                             final_eigenpair=None)


# enough records for more than two of the writer's blocks
_LONG_REPEATS = 2 * _BLOCK // 14 + 1


def test_trace_csv_matches_csv_writer_reference(tmp_path):
    for trace in (_special_trace(), _special_trace(_LONG_REPEATS)):
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_trace_csv(path, trace)
        _write_reference(ref, ["iter", "lambda1", "threshold_t", "S_measure",
                               "density_change_measure"], [
            [r.iteration] + [repr(float(v)) for v in (r.lambda1, r.threshold_t,
                                                      r.sublevel_measure,
                                                      r.density_change_measure)]
            for r in trace.records])
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_text().splitlines()[1].endswith(",nan")
    assert _crosses_blocks(len(trace.records))


def test_eigensolve_csv_matches_csv_writer_reference(tmp_path):
    for trace in (_special_trace(), _special_trace(_LONG_REPEATS)):
        path, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_eigensolve_csv(path, trace)
        # a gap that is not finite (inf at dimension 1) is an empty cell
        _write_reference(ref, ["iter", "iterations", "residual", "gap"], [
            [r.iteration, r.solve_iterations, repr(float(r.residual)),
             repr(float(r.gap)) if np.isfinite(r.gap) else ""]
            for r in trace.records])
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_text().splitlines()[-2].endswith(",")
    assert _crosses_blocks(len(trace.records))


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
    # x-nodes off by 1e-7 relative (about 3e-7 absolute) are not the grid's
    shifted = replace(grid, nodes_x=grid.nodes_x * (1.0 + 1e-7))
    write_grid_csv(tmp_path / "s.csv", shifted, np.ones(grid.shape), value_name="p")
    with pytest.raises(ValueError, match="do not match"):
        read_density_csv(tmp_path / "s.csv", grid)
    assert np.array_equal(read_density_csv(tmp_path / "d.csv", grid), np.ones(grid.shape))


def test_writers_are_deterministic(tmp_path, small_system):
    from hingedplate import minimize

    trace = minimize(small_system,
                     uniform_density(small_system))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(a, trace)
    write_trace_csv(b, trace)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "iter,lambda1,threshold_t,S_measure,density_change_measure"


def test_reports_json_shape(tmp_path):
    from hingedplate.series import certify_series

    reports = certify_series(grid_points=49, terms=2000)
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
