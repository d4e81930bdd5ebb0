import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag, cho_factor, cho_solve

import hingedplate.basis
from hingedplate import (
    PlateConfig,
    PlateSystem,
    QuadratureGrid,
    StiffnessFactor,
    assemble_weighted_mass,
    basis_matrix,
    random_admissible_density,
    strip_density,
)
from hingedplate.assembly import AssemblyError, stiffness_blocks


@pytest.fixture(scope="module")
def cfg():
    return PlateConfig(n_modes_x=6, n_basis_y=5, n_quad_x=40, n_quad_y=20)


@pytest.fixture(scope="module")
def system(cfg):
    return PlateSystem(cfg)


def _y_tables(cfg, grid):
    """psi_j and its first two y-derivatives on the grid, as PlateSystem holds them."""
    return hingedplate.basis._legendre_tables(grid.nodes_y, cfg.n_basis_y, cfg.ell,
                                              max_deriv=2)


def _dense_mass(system, values):
    """M_p as a dense matrix: the operator applied to the identity."""
    return assemble_weighted_mass(system, values).apply(np.eye(system.dimension))


def test_trig_orthogonality_oracle():
    # independent high-order quadrature of int_0^pi sin(mx) sin(m'x) dx
    x = np.linspace(0.0, math.pi, 200001)
    for m, mp in [(1, 2), (2, 5), (3, 6), (4, 5)]:
        val = np.trapezoid(np.sin(m * x) * np.sin(mp * x), x)
        assert abs(val) < 1e-12
    for m in (1, 4, 6):
        val = np.trapezoid(np.sin(m * x) ** 2, x)
        assert val == pytest.approx(math.pi / 2, rel=1e-9)


def test_stiffness_blocks_match_energy_form_on_grid(system, cfg):
    # independent path: the energy form int Delta u Delta v
    # + (1 - sigma)(2 u_xy v_xy - u_xx v_yy - u_yy v_xx) summed over the
    # tensor grid from pointwise basis derivatives.  Matching the block
    # diagonal checks both the sine-mode decoupling and the per-mode formula.
    grid = system.grid
    X, Y = grid.meshgrid()
    pts, w = np.column_stack([X.ravel(), Y.ravel()]), grid.weights.ravel()
    xx = basis_matrix(cfg, pts, dx=2)
    yy = basis_matrix(cfg, pts, dy=2)
    xy = basis_matrix(cfg, pts, dx=1, dy=1)
    lap = xx + yy
    ref = (lap * w) @ lap.T + (1.0 - cfg.sigma) * (
        2.0 * (xy * w) @ xy.T - (xx * w) @ yy.T - (yy * w) @ xx.T)
    K = block_diag(*stiffness_blocks(cfg, grid, _y_tables(cfg, grid)))
    assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()


def test_stiffness_positive_definite_for_all_sigma(system, cfg):
    grid = system.grid
    for sigma in (0.0, 0.2, 0.5, 0.9, 0.999):
        for blk in stiffness_blocks(replace(cfg, sigma=sigma), grid, _y_tables(cfg, grid)):
            assert np.linalg.eigvalsh(blk).min() > 0.0
    factor = StiffnessFactor.build(replace(cfg, sigma=0.999), grid, _y_tables(cfg, grid))
    rhs = np.ones(system.dimension)
    assert np.allclose(factor.matvec(factor.solve(rhs)), rhs,
                       rtol=0, atol=1e-8 * np.abs(rhs).max())


def test_quotient_positive_for_random_fields(system, cfg, rng):
    grid = system.grid
    factor = StiffnessFactor.build(cfg, grid, _y_tables(cfg, grid))
    M1 = _dense_mass(system, np.ones(grid.shape))
    for _ in range(25):
        c = rng.standard_normal(system.dimension)
        energy = c @ factor.matvec(c)
        assert energy > 0.0
        assert energy / (c @ M1 @ c) > 0.0


def test_sigma_difference_confined_to_boundary_rank(system, cfg):
    # K depends affinely on sigma and the sigma-derivative reduces to a
    # y-boundary term of rank <= 4 inside each sine-mode block
    grid = system.grid
    tables = _y_tables(cfg, grid)
    K0 = stiffness_blocks(replace(cfg, sigma=0.0), grid, tables)
    K2 = stiffness_blocks(replace(cfg, sigma=0.2), grid, tables)
    K5 = stiffness_blocks(replace(cfg, sigma=0.5), grid, tables)
    scale = max(np.abs(blk).max() for blk in K0)
    for b0, b2, b5 in zip(K0, K2, K5):
        B = (b0 - b5) / 0.5
        assert np.allclose(b2, b0 - 0.2 * B, rtol=0, atol=1e-10 * scale)
        s = np.linalg.svd(b0 - b2, compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) <= 4


def test_mass_matrix_uniform_density(system, cfg):
    grid = system.grid
    M1 = _dense_mass(system, np.ones(grid.shape))
    assert np.allclose(M1, M1.T)
    # single-mode diagonal entry: int sin^2(x) dx dy = (pi/2) * 2 ell
    a = 0  # flat index of (m=1, degree 0)
    assert M1[a, a] == pytest.approx(math.pi * cfg.ell, rel=1e-13)
    # trig orthogonality under quadrature: different m decouple
    J = cfg.n_basis_y
    off = M1.copy()
    for i in range(cfg.n_modes_x):
        off[i * J:(i + 1) * J, i * J:(i + 1) * J] = 0.0
    assert np.abs(off).max() <= 1e-12 * np.abs(M1).max()


def test_mass_matrix_scaling(system, rng):
    grid = system.grid
    vals = rng.uniform(0.5, 3.0, size=grid.shape)
    M = _dense_mass(system, vals)
    M2 = _dense_mass(system, 2.0 * vals)
    assert np.allclose(M2, 2.0 * M, rtol=1e-14)


def test_mass_matrix_bounds_enforced(system):
    # assembly's own bound is strict positivity; [alpha, beta] belongs to
    # DensityField (test_density_field_validation)
    grid = system.grid
    vals = np.full(grid.shape, 0.4)
    vals[3, 2] = 0.0
    with pytest.raises(AssemblyError, match="strictly positive"):
        assemble_weighted_mass(system, vals)
    vals[3, 2] = -0.4
    with pytest.raises(AssemblyError, match="strictly positive"):
        assemble_weighted_mass(system, vals)


def test_assembly_invariant_under_grid_relabeling(system, cfg, rng):
    # relabeling x -> pi - x, y -> -y permutes nodes; the quadrature sums
    # defining the weighted mass matrix are permutation invariant
    grid = system.grid
    vals = rng.uniform(0.5, 3.0, size=grid.shape)
    sym = 0.5 * (vals + vals[::-1, ::-1])
    M = _dense_mass(system, sym)
    M_flip = _dense_mass(system, sym[::-1, ::-1])
    assert np.array_equal(M, M_flip)


def test_quadrature_refinement_leaves_stiffness(system, cfg):
    grid = system.grid
    K = stiffness_blocks(cfg, grid, _y_tables(cfg, grid))
    fine = QuadratureGrid.from_config(replace(cfg, n_quad_y=2 * cfg.n_quad_y))
    K_fine = stiffness_blocks(cfg, fine, _y_tables(cfg, fine))
    scale = max(np.abs(blk).max() for blk in K)
    for blk, blk_fine in zip(K, K_fine):
        assert np.abs(blk - blk_fine).max() <= 1e-10 * scale


def test_mass_matrix_matches_dense_basis_product(system, cfg, rng):
    # oracle: the explicit (dimension, n_nodes) basis table contracted with
    # itself, against the operator's products and its diagonal blocks
    grid = system.grid
    p = random_admissible_density(system, rng)
    M = assemble_weighted_mass(system, p.values)
    X, Y = grid.meshgrid()
    phi = basis_matrix(cfg, np.column_stack([X.ravel(), Y.ravel()]))
    ref = (phi * (grid.weights.ravel() * p.values.ravel())) @ phi.T
    tol = 1e-14 * np.abs(ref).max()
    n, J = system.dimension, cfg.n_basis_y
    assert np.abs(M.apply(np.eye(n)) - ref).max() <= tol
    block = rng.standard_normal((n, 3))
    for x in (block, block[:, 0]):
        out = M.apply(x)
        assert out.shape == x.shape
        assert np.abs(out - ref @ x).max() <= tol * np.abs(x).sum(axis=0).max()
    D = M.diagonal_blocks()
    assert D.shape == (cfg.n_modes_x, J, J)
    for m, blk in enumerate(D):
        assert np.abs(blk - ref[m * J:(m + 1) * J, m * J:(m + 1) * J]).max() <= tol


def test_load_vector_matches_dense_basis_product(cfg, rng):
    system = PlateSystem(cfg)
    f = rng.standard_normal(system.grid.shape)
    X, Y = system.grid.meshgrid()
    phi = basis_matrix(cfg, np.column_stack([X.ravel(), Y.ravel()]))
    ref = phi @ (system.grid.weights.ravel() * f.ravel())
    assert np.abs(system.load_vector(f) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("config", [{}, {"n_modes_x": 80, "n_basis_y": 20,
                                         "n_quad_x": 160, "n_quad_y": 32}],
                         ids=["default", "dim-1600"])
def test_mass_moments_symmetric_and_match_batched_reference(config):
    # reference: the per-node batched products wx_i L^T diag(wy p_i) L, symmetrized
    system = PlateSystem(PlateConfig(**config))
    L = system.L
    for p in (strip_density(system, "left"),
              random_admissible_density(system, np.random.default_rng(19))):
        A = assemble_weighted_mass(system, p.values).A
        wpL = (system.grid.weights * p.values)[:, :, None] * L
        ref = np.matmul(wpL.transpose(0, 2, 1), L)
        ref = 0.5 * (ref + ref.transpose(0, 2, 1))
        assert np.array_equal(A, A.transpose(0, 2, 1))
        assert np.abs(A - ref).max() <= 1e-15 * np.abs(ref).max()


def test_mass_assembly_allocates_less_than_dense_table(rng):
    # dim 400 on 4096 nodes: a dense float64 basis table would take 13.1 MB
    cfg = PlateConfig(n_modes_x=20, n_basis_y=20, n_quad_x=128, n_quad_y=32)
    system = PlateSystem(cfg)
    grid = system.grid
    p = rng.uniform(0.5, 3.0, size=grid.shape)
    table_bytes = 8 * system.dimension * grid.shape[0] * grid.shape[1]
    tracemalloc.start()
    try:
        assemble_weighted_mass(system, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * table_bytes
    # nothing outlives a call: no module-level cache of basis tables
    module_state = [name for name, value in vars(hingedplate.basis).items()
                    if not name.startswith("__")
                    and ("cache" in name.lower() or isinstance(value, (dict, list, set)))]
    assert module_state == []


def test_solve_builds_no_dense_mass_matrix():
    # dim 1600 on 80 x 20 nodes: a dense float64 M_p would take 20.5 MB
    cfg = PlateConfig(n_modes_x=80, n_basis_y=20, n_quad_x=80, n_quad_y=20)
    system = PlateSystem(cfg)
    p = strip_density(system, "left")
    dim = system.dimension
    tracemalloc.start()
    try:
        system.solve_density(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * dim * dim


def test_stacked_factor_matches_block_diagonal_oracle(system, cfg, rng, monkeypatch):
    # oracle: the dense block-diagonal K assembled from the stack, solved
    # through its dense Cholesky factor
    grid = system.grid
    factor = StiffnessFactor.build(cfg, grid, _y_tables(cfg, grid))
    assert factor.blocks.shape == (cfg.n_modes_x, cfg.n_basis_y, cfg.n_basis_y)
    K = block_diag(*factor.blocks)
    KR = cho_factor(K)
    n = system.dimension
    block = rng.standard_normal((n, 3))
    reversed_f = np.asfortranarray(rng.standard_normal((n, 3)))[:, ::-1]
    for x in (rng.standard_normal(n), block, reversed_f):
        cases = [(factor.matvec, K @ x),
                 (factor.solve, cho_solve(KR, x))]
        for op, ref in cases:
            out = op(x)
            assert out.shape == x.shape
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.array_equal(out, op(np.ascontiguousarray(x)))

    # the blocks are factored once, at build, by one batched inverse and
    # no second factorization; a solve calls none
    calls = []
    for name in ("solve", "inv", "cholesky"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    StiffnessFactor.build(cfg, grid, _y_tables(cfg, grid))
    assert calls == ["inv"]
    calls.clear()
    factor.solve(block)
    factor.solve(block[:, 0])
    assert calls == []


def test_stacked_solve_is_backward_stable_at_dim_1600(rng):
    # the stored inverses are applied blockwise, so each block's normwise
    # backward error ||K_m x_m - b_m|| / (||K_m|| ||x_m||) must stay at the
    # rounding level (measured up to 1.6e-16; a batched LU gives 6.7e-17) although
    # cond(K_1) is 2.8e7 at J = 20
    cfg = PlateConfig(n_modes_x=80, n_basis_y=20, n_quad_x=160, n_quad_y=32)
    grid = QuadratureGrid.from_config(cfg)
    factor = StiffnessFactor.build(cfg, grid, _y_tables(cfg, grid))
    nm, J, _ = factor.blocks.shape
    norms = np.linalg.norm(factor.blocks, 2, axis=(1, 2))
    for rhs in (rng.standard_normal(nm * J), rng.standard_normal((nm * J, 8)),
                np.ones(nm * J)):
        x = factor.solve(rhs)
        r = (factor.matvec(x) - rhs).reshape(nm, J, -1)
        xs = x.reshape(nm, J, -1)
        backward = np.linalg.norm(r, axis=1) / (norms[:, None] * np.linalg.norm(xs, axis=1))
        assert backward.max() <= 1e-15
