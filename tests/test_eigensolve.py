import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from hingedplate import (
    GridField,
    PlateConfig,
    PlateSystem,
    SpectralField,
    StiffnessFactor,
    build_basis,
    evaluate_on_grid,
    random_admissible_density,
    rayleigh_quotient,
    solve_first,
    strip_density,
    uniform_density,
)
from hingedplate.cli import main
from hingedplate.eigensolve import NearDegenerateWarning, SolverError
from hingedplate.io import write_grid_csv

# First eigenvalue of the homogeneous plate at sigma=0.2, ell=pi/5, J=12,
# frozen from the sine-mode ODE oracle below plus the basis convergence study.
GOLDEN_LAMBDA_UNIFORM = 0.966672598128245


def uniform_plate_lambda_oracle(m: int, sigma: float, ell: float) -> float:
    """Smallest even-profile eigenvalue of the sine-mode ODE, independent path.

    For the homogeneous plate the eigenfunctions separate as sin(m x) h(y)
    with h'''' - 2 m^2 h'' + m^4 h = lambda h and the free-edge rows
    h'' - sigma m^2 h = 0, h''' - (2 - sigma) m^2 h' = 0 at y = +-ell.
    The even fundamental solutions are cosh(a y) and cos(b y) (or a second
    cosh when lambda < m^4), and the eigenvalue is a root of the 2x2
    boundary determinant, bracketed and solved to machine precision.
    """
    m2 = float(m * m)

    def det(lam):
        s = math.sqrt(lam)
        a = math.sqrt(m2 + s)
        r11 = (a * a - sigma * m2) * math.cosh(a * ell)
        r21 = a * (a * a - (2 - sigma) * m2) * math.sinh(a * ell)
        if s > m2:
            b = math.sqrt(s - m2)
            r12 = (-b * b - sigma * m2) * math.cos(b * ell)
            r22 = b * (b * b + (2 - sigma) * m2) * math.sin(b * ell)
        else:
            b = math.sqrt(m2 - s)
            r12 = (b * b - sigma * m2) * math.cosh(b * ell)
            r22 = b * (b * b - (2 - sigma) * m2) * math.sinh(b * ell)
        return r11 * r22 - r12 * r21

    lams = np.linspace(1e-6, 4.0 * m2 * m2, 4000)
    vals = [det(l) for l in lams]
    for lo, hi, vlo, vhi in zip(lams, lams[1:], vals, vals[1:]):
        if vlo * vhi < 0:
            return brentq(det, lo, hi, xtol=1e-15, rtol=8.9e-16)
    raise RuntimeError("no root bracketed")


def test_oracle_matches_golden():
    lam = uniform_plate_lambda_oracle(1, 0.2, math.pi / 5)
    assert lam == pytest.approx(GOLDEN_LAMBDA_UNIFORM, rel=1e-12)


def test_uniform_plate_convergence_study():
    # nested sine spaces: lambda1 non increasing in M and stable to >=10 digits
    values = []
    for M in (10, 12, 14, 16, 18, 20):
        cfg = PlateConfig(n_modes_x=M, n_basis_y=12)
        system = PlateSystem(cfg)
        pair = system.solve_density(uniform_density(system.grid, system.rule))
        values.append(pair.lambda1)
    for a, b in zip(values, values[1:]):
        assert b <= a * (1 + 1e-12)
    assert (max(values) - min(values)) / min(values) < 1e-10
    assert values[-1] == pytest.approx(GOLDEN_LAMBDA_UNIFORM, rel=1e-10)


def test_uniform_plate_matches_ode_oracle_in_y_resolution():
    oracle = uniform_plate_lambda_oracle(1, 0.2, math.pi / 5)
    prev_err = np.inf
    for J in (6, 8, 12):
        cfg = PlateConfig(n_modes_x=4, n_basis_y=J)
        system = PlateSystem(cfg)
        pair = system.solve_density(uniform_density(system.grid, system.rule))
        err = abs(pair.lambda1 - oracle) / oracle
        assert pair.lambda1 >= oracle * (1 - 1e-12)  # variational upper bound
        assert err <= prev_err * (1 + 1e-12)
        prev_err = err
    assert prev_err < 1e-11


def test_residual_and_rayleigh_consistency(default_system, default_uniform_pair):
    # the reported pair, checked against the dense block diagonal and the
    # dense generalized eigh's vector rather than the solver's own quotient
    pair = default_uniform_pair
    tol = default_system.cfg.eig_tol
    assert pair.residual <= tol
    Mp = default_system.mass_matrix(uniform_density(default_system.grid, default_system.rule))
    K = scipy.linalg.block_diag(*default_system.factor.blocks)
    c = pair.u.coefficients
    Kc = K @ c
    assert np.linalg.norm(Kc - pair.lambda1 * (Mp @ c)) <= tol * np.linalg.norm(Kc)
    _, vecs = scipy.linalg.eigh(K, Mp, subset_by_index=[0, 0])
    ref = vecs[:, 0]
    lam_ref = (ref @ K @ ref) / (ref @ Mp @ ref)
    assert abs(pair.lambda1 - lam_ref) <= 1e-12 * lam_ref


def test_normalization_weighted_unit_norm(default_system, default_uniform_pair):
    u = evaluate_on_grid(default_uniform_pair.u, default_system.grid)
    # p = 1: || sqrt(p) u ||_2^2 = quadrature of u^2
    assert default_system.grid.integrate(u.values ** 2) == pytest.approx(1.0, rel=1e-12)


def test_mass_scaling_halves_lambda(small_system):
    p = uniform_density(small_system.grid, small_system.rule)
    Mp = small_system.mass_matrix(p)
    cfg = small_system.cfg
    pair = solve_first(small_system.factor, Mp, cfg,
                       grid=small_system.grid, basis=small_system.basis)
    pair2 = solve_first(small_system.factor, 2.0 * Mp, cfg,
                        grid=small_system.grid, basis=small_system.basis)
    assert pair2.lambda1 == pytest.approx(0.5 * pair.lambda1, rel=1e-12)


def test_rayleigh_quotient_bounds(small_system, rng):
    p = uniform_density(small_system.grid, small_system.rule)
    factor = small_system.factor
    n = small_system.basis.dimension
    Mp = small_system.mass_matrix(p)
    pair = small_system.solve_density(p)
    lam1 = pair.lambda1
    # every trial field sits at or above the minimum
    for _ in range(100):
        u = SpectralField(small_system.basis, rng.standard_normal(n))
        assert rayleigh_quotient(u, factor, Mp) >= lam1 * (1 - 1e-12)
    # the second eigenvector sits at lambda2 >= lambda1
    K = scipy.linalg.block_diag(*factor.blocks)
    vals, vecs = scipy.linalg.eigh(K, Mp, subset_by_index=[0, 1])
    u2 = SpectralField(small_system.basis, vecs[:, 1])
    assert rayleigh_quotient(u2, factor, Mp) == pytest.approx(vals[1], rel=1e-10)
    assert vals[1] >= lam1
    with pytest.raises(ValueError):
        rayleigh_quotient(SpectralField(small_system.basis, np.zeros(n)), factor, Mp)


def _densities(system, rng):
    return [
        uniform_density(system.grid, system.rule),
        strip_density(system.grid, system.rule, "left"),
        random_admissible_density(system.grid, system.rule, rng),
    ]


def _assert_matches_dense_oracle(system, p):
    # the dense generalized eigh on the assembled block diagonal is the
    # reference the block inverse iteration must reproduce.  Its raw
    # eigenvalues are off by up to ~2e-11 relative (by 2e-10 in the gap at
    # sigma=0.5, ell=0.22) while its vectors are accurate, so lambda1 and
    # the gap are compared with the Rayleigh quotients of the oracle's vectors.
    K = scipy.linalg.block_diag(*system.factor.blocks)
    Mp = system.mass_matrix(p)
    pair = system.solve_density(p)
    assert pair.residual <= system.cfg.eig_tol
    _, vecs = scipy.linalg.eigh(K, Mp, subset_by_index=[0, 1])
    lam_ref = np.sum(vecs * (K @ vecs), axis=0) / np.sum(vecs * (Mp @ vecs), axis=0)
    assert abs(pair.lambda1 - lam_ref[0]) <= 1e-12 * lam_ref[0]
    assert pair.gap == pytest.approx(lam_ref[1] / lam_ref[0] - 1.0, rel=1e-10)
    ref = vecs[:, 0]  # M_p-normalized, like the returned coefficients
    c = pair.u.coefficients
    err = min(np.abs(c - ref).max(), np.abs(c + ref).max())
    assert err <= 1e-10 * np.abs(ref).max()


def test_solve_first_matches_dense_generalized_oracle(small_system, rng):
    for p in _densities(small_system, rng):
        _assert_matches_dense_oracle(small_system, p)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(sigma=st.floats(0.0, 0.5), ell=st.floats(0.2, 1.2),
       alpha=st.floats(0.2, 0.9), beta=st.floats(1.2, 6.0),
       n_modes_x=st.integers(2, 6), n_basis_y=st.integers(1, 5),
       kind=st.sampled_from(["uniform", "left", "right", "random"]),
       seed=st.integers(0, 2 ** 16))
def test_random_small_configs_match_dense_oracle(sigma, ell, alpha, beta, n_modes_x,
                                                 n_basis_y, kind, seed):
    cfg = PlateConfig(sigma=sigma, ell=ell, alpha=alpha, beta=beta, n_modes_x=n_modes_x,
                      n_basis_y=n_basis_y, n_quad_x=16, n_quad_y=8)
    system = PlateSystem(cfg)
    if kind == "uniform":
        p = uniform_density(system.grid, system.rule)
    elif kind == "random":
        p = random_admissible_density(system.grid, system.rule, np.random.default_rng(seed))
    else:
        p = strip_density(system.grid, system.rule, kind)
    _assert_matches_dense_oracle(system, p)


def test_inertia_oracle_counts_the_two_lowest_modes(small_system, rng):
    # Sylvester's law of inertia: K - s M_p has as many negative eigenvalues
    # as the pencil has below s, so the start block missed no mode below
    # theta_2 when exactly 0, 1 and 2 lie below these three shifts
    system = small_system
    K = scipy.linalg.block_diag(*system.factor.blocks)
    delta = 1e-8
    for p in _densities(system, rng):
        Mp = system.mass_matrix(p)
        pair = system.solve_density(p)
        theta1, theta2 = pair.lambda1, pair.lambda1 * (1.0 + pair.gap)
        for shift, below in ((theta1 * (1 - delta), 0), (theta2 * (1 - delta), 1),
                             (theta2 * (1 + delta), 2)):
            _, D, _ = scipy.linalg.ldl(K - shift * Mp)
            assert int(np.sum(np.linalg.eigvalsh(D) < 0.0)) == below


def test_orientation_takes_no_grid_pass(small_system, rng, monkeypatch):
    # the sign of u comes from its quadrature mean taken in coefficient
    # space, so no solve evaluates a field on the grid, and the mean's sign
    # is the sign of the grid integral
    import hingedplate.basis
    from hingedplate.eigensolve import _oriented

    evaluate = hingedplate.basis.evaluate_on_grid
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(hingedplate.basis, "evaluate_on_grid", counting)
    monkeypatch.setattr("hingedplate.eigensolve.evaluate_on_grid", counting, raising=False)
    system = small_system
    densities = _densities(system, rng)
    pairs = [solve_first(system.factor, system.mass_matrix(p), system.cfg,
                         basis=system.basis, grid=system.grid) for p in densities]
    assert calls == []

    def integral(field):
        return system.grid.integrate(evaluate(field, system.grid).values)

    for p, pair in zip(densities, pairs):
        Mp = system.mass_matrix(p)
        assert integral(pair.u) > 0.0
        c = pair.u.coefficients
        assert np.array_equal(_oriented(-c, Mp, system.basis, system.grid).coefficients, c)
        for _ in range(20):
            u = _oriented(rng.standard_normal(c.size), Mp, system.basis, system.grid)
            assert integral(u) > 0.0


def test_uniform_density_converges_in_one_step(small_system, default_uniform_pair):
    # for p = 1 the mass matrix is block diagonal to rounding, so the start
    # block already holds the uniform plate's modes
    p = uniform_density(small_system.grid, small_system.rule)
    assert small_system.solve_density(p).iterations <= 1
    assert default_uniform_pair.iterations <= 1


def test_step_cap_raises_solver_error(small_system, monkeypatch, tmp_path):
    p = strip_density(small_system.grid, small_system.rule, "left")
    assert small_system.solve_density(p).iterations > 0
    monkeypatch.setattr("hingedplate.eigensolve.MAX_STEPS", 0)
    with pytest.raises(SolverError, match="not converged"):
        small_system.solve_density(p)
    cfg_path, density_path = tmp_path / "config.json", tmp_path / "strip.csv"
    cfg_path.write_text(json.dumps(small_system.cfg.as_dict()))
    write_grid_csv(density_path, small_system.grid, p.values, value_name="p")
    assert main(["solve", "--config", str(cfg_path), "--density", str(density_path),
                 "--out", str(tmp_path / "run")]) == 3


def test_positivity_and_edge_slopes(default_system, rng):
    # first eigenfunction strictly positive at interior nodes, rises off
    # x=0 and falls into x=pi, for several admissible densities
    from hingedplate import random_admissible_density, strip_density

    system = default_system
    densities = [
        uniform_density(system.grid, system.rule),
        strip_density(system.grid, system.rule, "left"),
        random_admissible_density(system.grid, system.rule, rng),
    ]
    ys = system.grid.nodes_y
    for p in densities:
        pair = system.solve_density(p)
        uvals = evaluate_on_grid(pair.u, system.grid).values
        assert uvals.min() > 0.0
        s0 = pair.u.coefficients @ system.basis.eval_matrix(
            np.column_stack([np.zeros(ys.size), ys]), dx=1)
        spi = pair.u.coefficients @ system.basis.eval_matrix(
            np.column_stack([np.full(ys.size, math.pi), ys]), dx=1)
        assert s0.min() > 0.0
        assert spi.max() < 0.0


def test_lambda_monotone_in_weight(small_system, rng):
    # pointwise larger weight cannot raise the quotient minimum
    basis, grid = small_system.basis, small_system.grid
    cfg = small_system.cfg
    from hingedplate import assemble_weighted_mass

    for _ in range(5):
        p = 0.5 + rng.uniform(0.0, 1.0, size=grid.shape)
        q = p + rng.uniform(0.0, 1.0, size=grid.shape)
        lam_p = solve_first(
            small_system.factor,
            assemble_weighted_mass(basis, grid, GridField(grid, p)), cfg,
            grid=grid, basis=basis,
        ).lambda1
        lam_q = solve_first(
            small_system.factor,
            assemble_weighted_mass(basis, grid, GridField(grid, q)), cfg,
            grid=grid, basis=basis,
        ).lambda1
        assert lam_p >= lam_q * (1 - 1e-12)


def test_degenerate_single_y_function():
    # J = 1 keeps only the constant cross profile: pure sin(m x) fields
    cfg = PlateConfig(n_modes_x=6, n_basis_y=1, n_quad_x=32, n_quad_y=8)
    system = PlateSystem(cfg)
    pair = system.solve_density(uniform_density(system.grid, system.rule))
    assert pair.lambda1 > 0.0
    assert pair.residual <= cfg.eig_tol
    # richer y resolution can only lower the minimum
    cfg12 = PlateConfig(n_modes_x=6, n_basis_y=12, n_quad_x=32, n_quad_y=24)
    system12 = PlateSystem(cfg12)
    pair12 = system12.solve_density(uniform_density(system12.grid, system12.rule))
    assert pair12.lambda1 <= pair.lambda1 * (1 + 1e-12)


def test_near_degenerate_pair_warns():
    cfg = PlateConfig(n_modes_x=2, n_basis_y=1, n_quad_x=8, n_quad_y=4)
    basis = build_basis(cfg)
    one = np.eye(1)
    # K = I as two identical 1x1 blocks, each its own Cholesky factor
    factor = StiffnessFactor(blocks=(one, one), factors=(one, one))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NearDegenerateWarning):
            solve_first(factor, np.eye(2), cfg, basis=basis)
