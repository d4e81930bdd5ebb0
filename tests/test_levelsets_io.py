import json

import numpy as np
import pytest

from hingedplate import PlateConfig, QuadratureGrid, uniform_density
from hingedplate.io import (
    RunManifest,
    read_density_csv,
    write_grid_csv,
    write_reports_json,
    write_trace_csv,
)
from hingedplate.levelsets import iso_contours, level_bands


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
