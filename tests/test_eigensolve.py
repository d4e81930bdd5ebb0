import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from hingedplate import (
    PlateConfig,
    PlateSystem,
    StiffnessFactor,
    assemble_weighted_mass,
    basis_matrix,
    random_admissible_density,
    rayleigh_quotient,
    solve_first,
    strip_density,
    uniform_density,
)
from hingedplate.assembly import WeightedMass
from hingedplate.cli import main
from hingedplate.eigensolve import (
    EIG_TOL,
    NearDegenerateWarning,
    SolverError,
    _block_diagonal_start,
    _rayleigh_ritz,
)
from hingedplate.io import write_grid_csv

# First eigenvalue of the homogeneous plate at sigma=0.2, ell=pi/5, J=12,
# frozen from the sine-mode ODE oracle below plus the basis convergence study.
GOLDEN_LAMBDA_UNIFORM = 0.966672598128245


def _mass(system, values):
    """The weighted mass operator of node values, on the system's tables."""
    return assemble_weighted_mass(system, values)


def _dense_mass(system, values):
    """M_p as a dense matrix: the operator applied to the identity."""
    return _mass(system, values).apply(np.eye(system.dimension))


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
        pair = system.solve_density(uniform_density(system))
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
        pair = system.solve_density(uniform_density(system))
        err = abs(pair.lambda1 - oracle) / oracle
        assert pair.lambda1 >= oracle * (1 - 1e-12)  # variational upper bound
        assert err <= prev_err * (1 + 1e-12)
        prev_err = err
    assert prev_err < 1e-11


def test_residual_and_rayleigh_consistency(default_system, default_uniform_pair):
    # the reported pair, checked against the dense block diagonal and the
    # dense generalized eigh's vector rather than the solver's own quotient
    pair = default_uniform_pair
    tol = EIG_TOL
    assert pair.residual <= tol
    Mp = _dense_mass(default_system, np.ones(default_system.grid.shape))
    K = scipy.linalg.block_diag(*default_system.factor.blocks)
    c = pair.u
    Kc = K @ c
    assert np.linalg.norm(Kc - pair.lambda1 * (Mp @ c)) <= tol * np.linalg.norm(Kc)
    _, vecs = scipy.linalg.eigh(K, Mp, subset_by_index=[0, 0])
    ref = vecs[:, 0]
    lam_ref = (ref @ K @ ref) / (ref @ Mp @ ref)
    assert abs(pair.lambda1 - lam_ref) <= 1e-12 * lam_ref


def test_normalization_weighted_unit_norm(default_system, default_uniform_pair):
    u = default_system.grid_values(default_uniform_pair.u)
    # p = 1: || sqrt(p) u ||_2^2 = quadrature of u^2
    assert default_system.grid.integrate(u ** 2) == pytest.approx(1.0, rel=1e-12)


def test_mass_scaling_halves_lambda(small_system):
    ones = np.ones(small_system.grid.shape)
    pair = solve_first(small_system, _mass(small_system, ones))
    pair2 = solve_first(small_system, _mass(small_system, 2.0 * ones))
    assert pair2.lambda1 == pytest.approx(0.5 * pair.lambda1, rel=1e-12)


def test_rayleigh_quotient_bounds(small_system, rng):
    p = uniform_density(small_system)
    factor = small_system.factor
    n = small_system.dimension
    mass = _mass(small_system, p.values)
    Mp = mass.apply(np.eye(n))
    pair = small_system.solve_density(p)
    lam1 = pair.lambda1
    # every trial field sits at or above the minimum
    for _ in range(100):
        u = rng.standard_normal(n)
        assert rayleigh_quotient(u, factor, mass) >= lam1 * (1 - 1e-12)
    # the second eigenvector sits at lambda2 >= lambda1
    K = scipy.linalg.block_diag(*factor.blocks)
    vals, vecs = scipy.linalg.eigh(K, Mp, subset_by_index=[0, 1])
    assert rayleigh_quotient(vecs[:, 1], factor, mass) == pytest.approx(vals[1], rel=1e-10)
    assert vals[1] >= lam1
    with pytest.raises(ValueError):
        rayleigh_quotient(np.zeros(n), factor, mass)


def _densities(system, rng):
    return [
        uniform_density(system),
        strip_density(system, "left"),
        random_admissible_density(system, rng),
    ]


def _assert_matches_dense_oracle(system, p):
    # the dense generalized eigh on the assembled block diagonal is the
    # reference the block inverse iteration must reproduce.  Its raw
    # eigenvalues are off by up to ~2e-11 relative (by 2e-10 in the gap at
    # sigma=0.5, ell=0.22) while its vectors are accurate, so lambda1 and
    # the gap are compared with the Rayleigh quotients of the oracle's vectors.
    K = scipy.linalg.block_diag(*system.factor.blocks)
    Mp = _dense_mass(system, p.values)
    pair = system.solve_density(p)
    assert pair.residual <= EIG_TOL
    _, vecs = scipy.linalg.eigh(K, Mp, subset_by_index=[0, 1])
    lam_ref = np.sum(vecs * (K @ vecs), axis=0) / np.sum(vecs * (Mp @ vecs), axis=0)
    assert abs(pair.lambda1 - lam_ref[0]) <= 1e-12 * lam_ref[0]
    assert pair.gap == pytest.approx(lam_ref[1] / lam_ref[0] - 1.0, rel=1e-10)
    ref = vecs[:, 0]  # M_p-normalized, like the returned coefficients
    c = pair.u
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
        p = uniform_density(system)
    elif kind == "random":
        p = random_admissible_density(system, np.random.default_rng(seed))
    else:
        p = strip_density(system, kind)
    _assert_matches_dense_oracle(system, p)


def test_inertia_oracle_counts_the_two_lowest_modes(small_system, rng):
    # Sylvester's law of inertia: K - s M_p has as many negative eigenvalues
    # as the pencil has below s, so the start block missed no mode below
    # theta_2 when exactly 0, 1 and 2 lie below these three shifts
    system = small_system
    K = scipy.linalg.block_diag(*system.factor.blocks)
    delta = 1e-8
    for p in _densities(system, rng):
        Mp = _dense_mass(system, p.values)
        pair = system.solve_density(p)
        theta1, theta2 = pair.lambda1, pair.lambda1 * (1.0 + pair.gap)
        for shift, below in ((theta1 * (1 - delta), 0), (theta2 * (1 - delta), 1),
                             (theta2 * (1 + delta), 2)):
            _, D, _ = scipy.linalg.ldl(K - shift * Mp)
            assert int(np.sum(np.linalg.eigvalsh(D) < 0.0)) == below


def _all_mode_start(factor, mass, k):
    """The start block from every sine mode's pencil (K_m, D_m): the
    reference the certified start must reproduce bit for bit."""
    nm, J, _ = factor.blocks.shape
    theta, V = _rayleigh_ritz(factor.blocks, mass.diagonal_blocks())
    lowest = np.argsort(theta, axis=None, kind="stable")[:k]
    m, j = np.unravel_index(lowest, theta.shape)
    X = np.zeros((nm, J, k))
    X[m, :, np.arange(k)] = V[m, :, j]
    return X.reshape(nm * J, k)


DIM_1600 = {"n_modes_x": 80, "n_basis_y": 20, "n_quad_x": 160, "n_quad_y": 32}
START_CONFIGS = {
    "default": {},
    "dim-1600": DIM_1600,
    "ell-0.1": {"ell": 0.1},
    "ell-3": {"ell": 3.0},
    "ell-0.1-contrast-100": {"ell": 0.1, "alpha": 0.1, "beta": 10.0},
    "contrast-5000": {"alpha": 0.01, "beta": 50.0},
    "6x5": {"n_modes_x": 6, "n_basis_y": 5, "n_quad_x": 40, "n_quad_y": 20},
    "2x3": {"n_modes_x": 2, "n_basis_y": 3, "n_quad_x": 16, "n_quad_y": 8},
}


@pytest.mark.parametrize("name", sorted(START_CONFIGS))
def test_certified_start_is_the_all_mode_start(name):
    # the uniform-spectrum bound only leaves out modes that cannot hold one
    # of the k lowest pencil eigenvalues, so the start is unchanged.  Heavy
    # bands on the nodal lines of sin(3x) pull mode 4 below mode 3 in the
    # narrow high-contrast plate, which only the contrast factor admits.
    system = PlateSystem(PlateConfig(**START_CONFIGS[name]))
    grid, cfg = system.grid, system.cfg
    X, _ = grid.meshgrid()
    bands = (np.abs(X - np.pi / 3) < 0.1) | (np.abs(X - 2 * np.pi / 3) < 0.1)
    densities = [p.values for p in (
        uniform_density(system), strip_density(system, "left"),
        strip_density(system, "right"),
        random_admissible_density(system, np.random.default_rng(7)))]
    for values in densities + [np.where(bands, cfg.beta, cfg.alpha)]:
        mass = _mass(system, values)
        for k in (3, 4):
            assert np.array_equal(_block_diagonal_start(system, mass, k),
                                  _all_mode_start(system.factor, mass, k))


@pytest.mark.parametrize("name", sorted(START_CONFIGS))
def test_uniform_spectrum_matches_rayleigh_ritz(name):
    # the pencils (K_m, G) over c_m against a Rayleigh-Ritz solve of each
    # pencil (K_m, D_m(1)) = (K_m, c_m G): both carry an absolute error of
    # about eps * max_j theta_{m,j}, and the start keeps the same modes
    system = PlateSystem(PlateConfig(**START_CONFIGS[name]))
    wyL = system.grid.weights_y[:, None] * system.L
    c = (system.S * system.S) @ system.grid.weights_x
    ref = _rayleigh_ritz(system.factor.blocks, c[:, None, None] * (wyL.T @ system.L))[0]
    theta = system.uniform_spectrum
    assert np.all(np.abs(theta - ref) <= 1e-13 * ref.max(axis=1, keepdims=True))
    k = min(4, system.dimension)
    for contrast in (2.0, 12.0, 200.0, 1e4):
        kept = [np.flatnonzero(t[:, 0] <= 2.0 * contrast * np.sort(t, axis=None)[k - 1])
                for t in (theta, ref)]
        assert np.array_equal(*kept), contrast


def test_system_build_computes_no_eigenvectors(monkeypatch):
    # the p = 1 spectrum is eigenvalues only: building the system takes no
    # eigh, while a solve on it does
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    system = PlateSystem(PlateConfig(n_modes_x=6, n_basis_y=5, n_quad_x=40, n_quad_y=20))
    assert calls == []
    system.solve_density(uniform_density(system))
    assert calls


def test_indefinite_energy_blocks_rejected(monkeypatch):
    # the operator's one definiteness check is the p = 1 spectrum of the
    # build: a block with negative eigenvalues stops it before any solve
    cfg = PlateConfig(n_modes_x=6, n_basis_y=5, n_quad_x=40, n_quad_y=20)
    blocks = PlateSystem(cfg).factor.blocks.copy()
    blocks[-1] = -blocks[-1]
    monkeypatch.setattr("hingedplate.assembly.stiffness_blocks", lambda *args: blocks)
    with pytest.raises(SolverError, match="not positive"):
        PlateSystem(cfg)


def test_thin_plate_rejected_at_construction(monkeypatch):
    # at ell = 1e-8 rounding makes the operator indefinite; building the
    # system raises, with no eigensolve started
    monkeypatch.setattr("hingedplate.optimize.solve_first", None)
    with pytest.raises(SolverError, match="uniform plate spectrum is not positive"):
        PlateSystem(PlateConfig(n_modes_x=6, n_basis_y=4, n_quad_x=16, n_quad_y=8, ell=1e-8))


def test_certified_start_projects_few_modes_at_dim_1600(monkeypatch):
    # the speed-up of the start: a strip density at dim 1600 projects at
    # most 5 of the 80 sine-mode pencils
    system = PlateSystem(PlateConfig(**DIM_1600))
    projected = []

    def recording(A, B):
        if A.ndim == 3:
            projected.append(A.shape[0])
        return _rayleigh_ritz(A, B)

    monkeypatch.setattr("hingedplate.eigensolve._rayleigh_ritz", recording)
    for side in ("left", "right"):
        system.solve_density(strip_density(system, side))
    assert len(projected) == 2
    assert max(projected) <= 5


def test_orientation_takes_no_grid_pass(small_system, rng, count_calls):
    # the sign of u comes from its quadrature mean taken in coefficient
    # space, so no solve evaluates a field on the grid or builds a y-table,
    # and the mean's sign is the sign of the grid integral
    from hingedplate.eigensolve import _oriented

    built, sampled = count_calls("_legendre_tables"), count_calls("evaluate_on_grid")
    system = small_system
    densities = _densities(system, rng)
    pairs = [solve_first(system, _mass(system, p.values)) for p in densities]
    assert built == [] and sampled == []

    def integral(c):
        return system.grid.integrate(system.grid_values(c))

    for p, pair in zip(densities, pairs):
        assert integral(pair.u) > 0.0
        c = pair.u
        assert np.array_equal(_oriented(-c, system), c)
        for _ in range(20):
            u = _oriented(rng.standard_normal(c.size), system)
            assert integral(u) > 0.0


def test_uniform_density_converges_in_one_step(small_system, default_uniform_pair):
    # for p = 1 the mass matrix is block diagonal to rounding, so the start
    # block already holds the uniform plate's modes
    p = uniform_density(small_system)
    assert small_system.solve_density(p).iterations <= 1
    assert default_uniform_pair.iterations <= 1


def test_step_cap_raises_solver_error(small_system, monkeypatch, tmp_path):
    p = strip_density(small_system, "left")
    assert small_system.solve_density(p).iterations > 0
    monkeypatch.setattr("hingedplate.eigensolve.MAX_STEPS", 0)
    with pytest.raises(SolverError, match="not converged") as failure:
        small_system.solve_density(p)
    # the message names both Ritz residuals, each against its threshold,
    # and at least one of them misses it
    first, second = re.search(
        r"residuals (\S+) \(EIG_TOL 1\.0e-12\) and (\S+) \(sqrt\(EIG_TOL\) 1\.0e-06\)",
        str(failure.value)).groups()
    assert float(first) > EIG_TOL or float(second) > math.sqrt(EIG_TOL)
    cfg_path, density_path = tmp_path / "config.json", tmp_path / "strip.csv"
    cfg_path.write_text(json.dumps(small_system.cfg.as_dict()))
    write_grid_csv(density_path, small_system.grid, p.values)
    assert main(["solve", "--config", str(cfg_path), "--density", str(density_path),
                 "--out", str(tmp_path / "run")]) == 3


def test_positivity_and_edge_slopes(default_system, rng):
    # first eigenfunction strictly positive at interior nodes, rises off
    # x=0 and falls into x=pi, for several admissible densities
    from hingedplate import random_admissible_density, strip_density

    system = default_system
    densities = [
        uniform_density(system),
        strip_density(system, "left"),
        random_admissible_density(system, rng),
    ]
    ys = system.grid.nodes_y
    for p in densities:
        pair = system.solve_density(p)
        uvals = system.grid_values(pair.u)
        assert uvals.min() > 0.0
        s0 = pair.u @ basis_matrix(
            system.cfg, np.column_stack([np.zeros(ys.size), ys]), dx=1)
        spi = pair.u @ basis_matrix(
            system.cfg, np.column_stack([np.full(ys.size, math.pi), ys]), dx=1)
        assert s0.min() > 0.0
        assert spi.max() < 0.0


def test_lambda_monotone_in_weight(small_system, rng):
    # pointwise larger weight cannot raise the quotient minimum
    grid = small_system.grid
    for _ in range(5):
        p = 0.5 + rng.uniform(0.0, 1.0, size=grid.shape)
        q = p + rng.uniform(0.0, 1.0, size=grid.shape)
        lam_p = solve_first(small_system, _mass(small_system, p)).lambda1
        lam_q = solve_first(small_system, _mass(small_system, q)).lambda1
        assert lam_p >= lam_q * (1 - 1e-12)


def test_degenerate_single_y_function():
    # J = 1 keeps only the constant cross profile: pure sin(m x) fields
    cfg = PlateConfig(n_modes_x=6, n_basis_y=1, n_quad_x=32, n_quad_y=8)
    system = PlateSystem(cfg)
    pair = system.solve_density(uniform_density(system))
    assert pair.lambda1 > 0.0
    assert pair.residual <= EIG_TOL
    # richer y resolution can only lower the minimum
    cfg12 = PlateConfig(n_modes_x=6, n_basis_y=12, n_quad_x=32, n_quad_y=24)
    system12 = PlateSystem(cfg12)
    pair12 = system12.solve_density(uniform_density(system12))
    assert pair12.lambda1 <= pair.lambda1 * (1 + 1e-12)


def test_near_degenerate_pair_warns():
    system = PlateSystem(PlateConfig(n_modes_x=2, n_basis_y=1, n_quad_x=8, n_quad_y=4))
    # K = I as two identical 1x1 blocks with their inverses, and M_p = I
    # from a unit sine table and unit moments of a uniform density
    system.factor = StiffnessFactor(blocks=np.ones((2, 1, 1)), inverse=np.ones((2, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NearDegenerateWarning):
            solve_first(system, WeightedMass(S=np.eye(2), A=np.ones((2, 1, 1)), contrast=1.0))
