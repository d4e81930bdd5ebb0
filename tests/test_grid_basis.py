import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

import hingedplate.basis
from hingedplate import (
    PlateConfig,
    PlateSystem,
    QuadratureGrid,
    basis_matrix,
    evaluate_on_grid,
)
from hingedplate.basis import _legendre_tables, _sine_table
from hingedplate.grid import _gauss_nodes


@pytest.fixture(scope="module")
def cfg():
    return PlateConfig(n_modes_x=6, n_basis_y=5, n_quad_x=24, n_quad_y=12)


@pytest.fixture(scope="module")
def grid(cfg):
    return QuadratureGrid.from_config(cfg)


def _grid_points(grid):
    X, Y = grid.meshgrid()
    return np.column_stack([X.ravel(), Y.ravel()])


def test_weight_sums(grid, cfg):
    assert np.sum(grid.weights_x) == pytest.approx(math.pi, rel=1e-13)
    assert np.sum(grid.weights_y) == pytest.approx(2 * cfg.ell, rel=1e-13)


def test_node_symmetry(grid):
    assert np.allclose(grid.nodes_x + grid.nodes_x[::-1], math.pi, atol=1e-13)
    assert np.allclose(grid.nodes_y + grid.nodes_y[::-1], 0.0, atol=1e-13)
    # bit for bit: the gray node's mirror-pair mass sum relies on it
    assert np.array_equal(grid.weights_x, grid.weights_x[::-1])
    assert np.all(grid.weights_x > 0) and np.all(grid.weights_y > 0)
    # and so for every even n_quad_x up to 256, and at 512 and 1024
    for n in [*range(2, 257, 2), 512, 1024]:
        nodes_x, weights_x = _gauss_nodes(n, 0.0, math.pi)
        assert np.allclose(nodes_x + nodes_x[::-1], math.pi, atol=1e-13), n
        assert np.array_equal(weights_x, weights_x[::-1]), n


def test_nodes_interior_and_increasing(grid, cfg):
    assert 0 < grid.nodes_x[0] and grid.nodes_x[-1] < math.pi
    assert -cfg.ell < grid.nodes_y[0] and grid.nodes_y[-1] < cfg.ell
    assert np.all(np.diff(grid.nodes_x) > 0)
    assert np.all(np.diff(grid.nodes_y) > 0)


def _legendre(j, s):
    """P_j(s) by Bonnet's recurrence, independent of numpy's legendre module."""
    prev, cur = np.ones_like(s), s
    if j == 0:
        return prev
    for n in range(1, j):
        prev, cur = cur, ((2 * n + 1) * s * cur - n * prev) / (n + 1)
    return cur


def _legendre_tables_per_column(y, n_funcs, ell, max_deriv):
    """The reference loop: one legval call per column and derivative order."""
    s = np.asarray(y, dtype=float) / ell
    tables = [np.empty((s.size, n_funcs)) for _ in range(max_deriv + 1)]
    for j in range(n_funcs):
        coeff = np.zeros(j + 1)
        coeff[j] = 1.0
        for d in range(max_deriv + 1):
            tables[d][:, j] = npleg.legval(s, npleg.legder(coeff, d) if d else coeff) / ell**d
    return tables


@pytest.mark.parametrize("n_funcs", [1, 5, 20])
@pytest.mark.parametrize("max_deriv", [0, 1, 2])
def test_legendre_tables_match_per_column_loop(grid, cfg, n_funcs, max_deriv):
    # an odd point count with a node at y = 0, then the Gauss nodes
    odd = cfg.ell * np.linspace(-1.0, 1.0, 33)
    assert odd[16] == 0.0
    for y in (odd, grid.nodes_y):
        tables = _legendre_tables(y, n_funcs, cfg.ell, max_deriv=max_deriv)
        ref = _legendre_tables_per_column(y, n_funcs, cfg.ell, max_deriv)
        assert len(tables) == max_deriv + 1
        for table, expected in zip(tables, ref):
            assert table.shape == (y.size, n_funcs)
            assert table.flags.c_contiguous
            assert np.array_equal(table.view(np.int64), expected.view(np.int64))


def test_basis_dimension_and_index_map():
    assert PlateSystem(PlateConfig(n_modes_x=1, n_basis_y=1)).dimension == 1
    c20 = PlateConfig(n_modes_x=20, n_basis_y=12)
    assert PlateSystem(c20).dimension == 240
    # row (m-1)*J + j of basis_matrix holds sin(m x) * P_j(y/ell)
    J = c20.n_basis_y
    pts = np.array([[0.3, 0.1], [1.7, -0.4], [2.9, 0.6]])
    rows = basis_matrix(c20, pts)
    assert rows.shape == (240, 3)
    for m in (1, 2, 7, 20):
        for j in (0, 1, 4, 11):
            ref = np.sin(m * pts[:, 0]) * _legendre(j, pts[:, 1] / c20.ell)
            assert np.abs(rows[(m - 1) * J + j] - ref).max() < 1e-13


def test_discretization_is_recorded_once():
    # the config holds the counts and ell, the system the grid and tables:
    # the basis module defines no class, and the grid holds nodes and weights only
    assert [v for v in vars(hingedplate.basis).values()
            if isinstance(v, type) and v.__module__ == "hingedplate.basis"] == []
    assert [f.name for f in dataclasses.fields(QuadratureGrid)] == [
        "nodes_x", "weights_x", "nodes_y", "weights_y"]
    for c in (PlateConfig(n_modes_x=1, n_basis_y=1, n_quad_x=2, n_quad_y=1),
              PlateConfig(n_modes_x=6, n_basis_y=5, n_quad_x=24, n_quad_y=12)):
        assert PlateSystem(c).dimension == c.n_modes_x * c.n_basis_y
    x = np.linspace(0.0, math.pi, 9)
    for n in (1, 4):
        for dx in (0, 1, 2):
            table = _sine_table(n, x, dx)
            assert table.shape == (n, x.size)
            for m in range(1, n + 1):
                ref = m**dx * np.sin(m * x + dx * math.pi / 2)  # d^dx/dx^dx sin(m x)
                assert np.abs(table[m - 1] - ref).max() <= 1e-14 * m**dx


def test_single_mode_evaluations(cfg):
    # coefficient 1 on (m=1, degree 0), flat index 0: field is sin(x)
    dim = cfg.n_modes_x * cfg.n_basis_y
    c = np.zeros(dim)
    c[0] = 1.0
    assert (c @ basis_matrix(cfg, [[math.pi / 2, 0.0]]))[0] == pytest.approx(1.0, abs=1e-15)
    assert (c @ basis_matrix(cfg, [[0.0, 0.1]], dx=1))[0] == pytest.approx(1.0, abs=1e-15)
    # m=2, flat index J, vanishes at x=pi/2
    c2 = np.zeros(dim)
    c2[cfg.n_basis_y] = 1.0
    assert abs((c2 @ basis_matrix(cfg, [[math.pi / 2, 0.3]]))[0]) < 1e-14


def test_fields_vanish_on_hinged_edges(cfg, rng):
    c = rng.standard_normal(cfg.n_modes_x * cfg.n_basis_y)
    ys = np.linspace(-cfg.ell, cfg.ell, 7)
    pts0 = np.column_stack([np.zeros(7), ys])
    ptspi = np.column_stack([np.full(7, math.pi), ys])
    assert np.abs(c @ basis_matrix(cfg, pts0)).max() < 1e-12
    assert np.abs(c @ basis_matrix(cfg, ptspi)).max() < 1e-12


def test_derivatives_match_finite_differences(cfg, rng):
    c = rng.standard_normal(cfg.n_modes_x * cfg.n_basis_y)

    def value(x, y):
        return (c @ basis_matrix(cfg, [[x, y]]))[0]

    pts = np.array([[1.0, 0.1], [2.0, -0.3], [0.7, 0.5 * cfg.ell]])
    ux = c @ basis_matrix(cfg, pts, dx=1)
    uy = c @ basis_matrix(cfg, pts, dy=1)
    h = 1e-6
    for k, (x, y) in enumerate(pts):
        fd_x = (value(x + h, y) - value(x - h, y)) / (2 * h)
        fd_y = (value(x, y + h) - value(x, y - h)) / (2 * h)
        assert ux[k] == pytest.approx(fd_x, rel=1e-8, abs=1e-8)
        assert uy[k] == pytest.approx(fd_y, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("dx, dy", [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])
def test_lattice_sampler_matches_eval_matrix(cfg, dx, dy, rng):
    # every field sample is one evaluate_on_grid call: on the grid through
    # PlateSystem.grid_values, and on the x-lines of the edge and midline
    # slopes (x = 0, pi/2, pi at the grid's y nodes) from a sine table
    system = PlateSystem(cfg)
    grid = system.grid
    c = rng.standard_normal(system.dimension)
    lines = np.array([0.0, math.pi / 2, math.pi])
    Xl, Yl = np.meshgrid(lines, grid.nodes_y, indexing="ij")
    cases = [
        (system.grid_values(c, dx=dx, dy=dy), _grid_points(grid)),
        (evaluate_on_grid(c, _sine_table(cfg.n_modes_x, lines, dx), system.y_tables[dy]),
         np.column_stack([Xl.ravel(), Yl.ravel()])),
    ]
    for sampled, pts in cases:
        ref = c @ basis_matrix(cfg, pts, dx=dx, dy=dy)
        assert np.abs(sampled.ravel() - ref).max() <= 1e-13 * np.abs(ref).max()


def test_integrate_constant(grid, cfg):
    vals = np.ones(grid.shape)
    assert grid.integrate(vals) == pytest.approx(2 * math.pi * cfg.ell, rel=1e-13)
