import math

import numpy as np
import pytest

from hingedplate import (
    PlateConfig,
    QuadratureGrid,
    SpectralField,
    build_basis,
    evaluate,
    evaluate_dx,
    evaluate_dy,
    evaluate_on_grid,
)


@pytest.fixture(scope="module")
def cfg():
    return PlateConfig(n_modes_x=6, n_basis_y=5, n_quad_x=24, n_quad_y=12)


@pytest.fixture(scope="module")
def grid(cfg):
    return QuadratureGrid.from_config(cfg)


@pytest.fixture(scope="module")
def basis(cfg):
    return build_basis(cfg)


def test_weight_sums(grid, cfg):
    assert np.sum(grid.weights_x) == pytest.approx(math.pi, rel=1e-13)
    assert np.sum(grid.weights_y) == pytest.approx(2 * cfg.ell, rel=1e-13)


def test_node_symmetry(grid):
    assert np.allclose(grid.nodes_x + grid.nodes_x[::-1], math.pi, atol=1e-13)
    assert np.allclose(grid.nodes_y + grid.nodes_y[::-1], 0.0, atol=1e-13)
    assert np.allclose(grid.weights_x, grid.weights_x[::-1])
    assert np.all(grid.weights_x > 0) and np.all(grid.weights_y > 0)


def test_nodes_interior_and_increasing(grid, cfg):
    assert 0 < grid.nodes_x[0] and grid.nodes_x[-1] < math.pi
    assert -cfg.ell < grid.nodes_y[0] and grid.nodes_y[-1] < cfg.ell
    assert np.all(np.diff(grid.nodes_x) > 0)
    assert np.all(np.diff(grid.nodes_y) > 0)


def test_basis_dimension_and_index_map():
    cfg1 = PlateConfig(n_modes_x=1, n_basis_y=1)
    b1 = build_basis(cfg1)
    assert b1.dimension == 1
    cfg20 = PlateConfig(n_modes_x=20, n_basis_y=12)
    b20 = build_basis(cfg20)
    assert b20.dimension == 240
    for a in range(0, b20.dimension, 37):
        m, j = b20.mode_of(a)
        assert b20.flat_index(m, j) == a


def test_single_mode_evaluations(basis):
    # coefficient 1 on (m=1, degree 0): field is sin(x)
    c = np.zeros(basis.dimension)
    c[basis.flat_index(1, 0)] = 1.0
    f = SpectralField(basis, c)
    assert evaluate(f, [[math.pi / 2, 0.0]])[0] == pytest.approx(1.0, abs=1e-15)
    assert evaluate_dx(f, [[0.0, 0.1]])[0] == pytest.approx(1.0, abs=1e-15)
    # m=2 vanishes at x=pi/2
    c2 = np.zeros(basis.dimension)
    c2[basis.flat_index(2, 0)] = 1.0
    f2 = SpectralField(basis, c2)
    assert abs(evaluate(f2, [[math.pi / 2, 0.3]])[0]) < 1e-14


def test_fields_vanish_on_hinged_edges(basis, rng):
    f = SpectralField(basis, rng.standard_normal(basis.dimension))
    ys = np.linspace(-basis.ell, basis.ell, 7)
    pts0 = np.column_stack([np.zeros(7), ys])
    ptspi = np.column_stack([np.full(7, math.pi), ys])
    assert np.abs(evaluate(f, pts0)).max() < 1e-12
    assert np.abs(evaluate(f, ptspi)).max() < 1e-12


def test_derivatives_match_finite_differences(basis, rng):
    f = SpectralField(basis, rng.standard_normal(basis.dimension))
    pts = np.array([[1.0, 0.1], [2.0, -0.3], [0.7, 0.5 * basis.ell]])
    h = 1e-6
    for k, (x, y) in enumerate(pts):
        fd_x = (evaluate(f, [[x + h, y]])[0] - evaluate(f, [[x - h, y]])[0]) / (2 * h)
        fd_y = (evaluate(f, [[x, y + h]])[0] - evaluate(f, [[x, y - h]])[0]) / (2 * h)
        assert evaluate_dx(f, pts)[k] == pytest.approx(fd_x, rel=1e-8, abs=1e-8)
        assert evaluate_dy(f, pts)[k] == pytest.approx(fd_y, rel=1e-8, abs=1e-8)


def test_grid_evaluation_matches_pointwise(basis, grid, rng):
    f = SpectralField(basis, rng.standard_normal(basis.dimension))
    sampled = evaluate_on_grid(f, grid).values
    pts = grid.flat_points()
    assert np.allclose(sampled.ravel(), evaluate(f, pts), atol=1e-13)


def test_grid_derivatives_match_eval_matrix(basis, grid, rng):
    f = SpectralField(basis, rng.standard_normal(basis.dimension))
    pts = grid.flat_points()
    for dx, dy in [(1, 0), (0, 1)]:
        sampled = evaluate_on_grid(f, grid, dx=dx, dy=dy).values
        ref = f.coefficients @ basis.eval_matrix(pts, dx=dx, dy=dy)
        assert np.abs(sampled.ravel() - ref).max() <= 1e-13 * np.abs(ref).max()


def test_grid_field_rejects_bad_shapes(grid):
    from hingedplate import GridField

    with pytest.raises(ValueError):
        GridField(grid, np.ones((3, 3)))
    bad = np.ones(grid.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        GridField(grid, bad)


def test_integrate_constant(grid, cfg):
    vals = np.ones(grid.shape)
    assert grid.integrate(vals) == pytest.approx(2 * math.pi * cfg.ell, rel=1e-13)
