import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hingedplate import (
    PlateConfig,
    PlateSystem,
    QuadratureGrid,
    bang_bang_from_values,
    polarization_energy_gap,
    polarize,
    theta1_quotient,
    uniform_density,
)
from hingedplate.assembly import StiffnessFactor
from hingedplate.certify import run_suite
from hingedplate.polarization import (POLARIZATION_SEED, _positive_field_sampler,
                                      certify_duality, certify_polarization)


@pytest.fixture(scope="module")
def small_grid(small_cfg):
    return QuadratureGrid.from_config(small_cfg)


def test_polarize_symmetric_fixed(small_grid):
    X, Y = small_grid.meshgrid()
    raw = np.sin(X) * (1 + 0.5 * np.cos(Y))
    v = 0.5 * (raw + raw[::-1, :])  # exact mirror symmetry
    assert np.array_equal(polarize(v), v)


def test_polarize_monotone_coordinate(small_grid):
    # v = x is right dominant, so its polarization is the full reflection
    X, _ = small_grid.meshgrid()
    assert np.allclose(polarize(X), math.pi - X, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polarize_idempotent_and_pair_sum_bitexact(seed):
    grid = QuadratureGrid.from_config(
        PlateConfig(n_modes_x=8, n_basis_y=8, n_quad_x=16, n_quad_y=8))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    v_h = polarize(v)
    again = polarize(v_h)
    assert np.array_equal(again, v_h)
    pair = v + v[::-1, :]
    pair_h = v_h + v_h[::-1, :]
    assert np.array_equal(pair, pair_h)
    # left half holds the pointwise larger member of each mirror pair
    nx = grid.shape[0]
    left, right = v_h[: nx // 2], v_h[::-1, :][: nx // 2]
    assert np.all(left >= right)
    # the row split equals the coordinate mask x < pi/2, bit for bit
    reference = np.where((grid.nodes_x < np.pi / 2)[:, None],
                         np.maximum(v, v[::-1]), np.minimum(v, v[::-1]))
    assert np.array_equal(v_h, reference)


@pytest.mark.parametrize("n_quad", [(16, 8), (96, 48), (512, 128)],
                         ids=["16x8", "96x48", "512x128"])
def test_first_half_of_x_nodes_is_left_of_midline(n_quad):
    # polarize takes the first n_quad_x // 2 rows as the left half x < pi/2
    grid = QuadratureGrid.from_config(
        PlateConfig(n_modes_x=8, n_basis_y=8, n_quad_x=n_quad[0], n_quad_y=n_quad[1]))
    half = grid.shape[0] // 2
    assert np.all(grid.nodes_x[:half] < np.pi / 2)
    assert np.all(grid.nodes_x[half:] > np.pi / 2)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_polarized_two_material_identities(seed):
    system = PlateSystem(PlateConfig(n_basis_y=10, n_quad_x=24, n_quad_y=10))
    grid, cfg = system.grid, system.cfg
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.01, 1.0, size=grid.shape)
    p_u, t = bang_bang_from_values(u, system)
    u_h = polarize(u)
    p_h, t_h = bang_bang_from_values(u_h, system)
    # the polarized field lands on the threshold of the original
    assert t_h == pytest.approx(t, rel=1e-12, abs=0.0)
    # weighting then polarizing equals polarizing then weighting, nodewise
    lhs = polarize(p_u.values * u)
    rhs = p_h.values * u_h
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)
    # mass and weighted energy preserved
    assert p_h.mass == pytest.approx(cfg.target_mass, rel=1e-10)
    w = grid.weights
    e_u = float(np.sum(w * p_u.values * u ** 2))
    e_h = float(np.sum(w * p_h.values * u_h ** 2))
    assert e_h == pytest.approx(e_u, rel=1e-12)


@pytest.mark.parametrize("n_quad", [(256, 64), (512, 128)], ids=["256x64", "512x128"])
def test_rearrangement_commutes_with_polarization_bitwise(n_quad):
    # the gray node's value comes from a mass sum that mirror swaps cannot
    # reorder, so the polarized field's density is the polarized density
    # bit for bit, gray node included, also on fine grids
    system = PlateSystem(PlateConfig(n_quad_x=n_quad[0], n_quad_y=n_quad[1]))
    rng = np.random.default_rng(POLARIZATION_SEED)
    sample = _positive_field_sampler(*system.grid.meshgrid(), system.cfg.ell)
    for _ in range(15):
        u = sample(rng)
        p_u, _ = bang_bang_from_values(u, system)
        p_h, _ = bang_bang_from_values(polarize(u), system)
        assert np.array_equal(polarize(p_u.values), p_h.values)


def _inline_positive_field(rng, X, Y, ell):
    # the sampler's draw with every term computed in the expression itself
    kind = rng.integers(0, 2)
    if kind == 0:
        a = rng.uniform(-0.5, 0.5, size=3)
        f = np.sin(X) * (1.0 + 0.3 * np.sin(2.0 * Y / ell)) \
            + a[0] * np.sin(2 * X) + a[1] * np.sin(3 * X) \
            + a[2] * np.sin(2 * X) * (Y / ell)
        return f - f.min() + 0.05
    f = rng.uniform(0.0, 1.0, size=X.shape)
    return f + 0.05


@pytest.mark.parametrize("ell", [math.pi / 5, 0.1, 3.0], ids=["pi/5", "0.1", "3"])
def test_sampled_fields_match_the_inline_expression_bitwise(small_grid, ell):
    # the sampler's terms, computed once, give every draw the bits of the
    # expression written out in full, for sine mixes and noise alike
    X, Y = small_grid.meshgrid()
    sample = _positive_field_sampler(X, Y, ell)
    for seed in (POLARIZATION_SEED, 0, 1, 7, 997):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            assert np.array_equal(sample(rng).view(np.int64),
                                  _inline_positive_field(ref, X, Y, ell).view(np.int64))


def test_theta1_quotient_duality(default_system, default_uniform_pair):
    p = uniform_density(default_system)
    u = default_system.grid_values(default_uniform_pair.u)
    q = theta1_quotient(p, u)
    assert abs(q * default_uniform_pair.lambda1 - 1.0) <= 1e-9


def test_theta1_quotient_never_exceeds_inverse_lambda(default_system, default_uniform_pair, rng):
    p = uniform_density(default_system)
    bound = 1.0 / default_uniform_pair.lambda1
    for _ in range(100):
        v = rng.standard_normal(default_system.grid.shape)
        assert theta1_quotient(p, v) <= bound + 1e-9


def test_theta1_quotient_improves_under_absolute_value(default_system, rng):
    p = uniform_density(default_system)
    for _ in range(20):
        vals = rng.standard_normal(default_system.grid.shape)
        q_signed = theta1_quotient(p, vals)
        q_abs = theta1_quotient(p, np.abs(vals))
        assert q_abs >= q_signed - 1e-12


def test_energy_gap_cases(default_system, rng):
    grid = default_system.grid
    X, Y = grid.meshgrid()

    # symmetric field: equality
    u_sym = np.sin(X) * (1.0 + 0.2 * np.cos(Y))
    assert abs(polarization_energy_gap(u_sym, default_system)) <= 1e-10

    # already polarized (left dominant): bitwise equality of both forms
    u_left = (np.sin(X) + 0.3 * np.sin(2 * X)) * (1 + 0.1 * np.cos(Y))
    assert polarization_energy_gap(u_left, default_system) == 0.0

    # pure right dominant: the polarization is the exact mirror image, and
    # mirror invariance of the kernel forces equality (not strict gain)
    u_right = (np.sin(X) - 0.3 * np.sin(2 * X)) * (1 + 0.1 * np.cos(Y))
    assert abs(polarization_energy_gap(u_right, default_system)) <= 1e-10

    # genuinely mixed dominance: strictly positive gain
    ell = default_system.cfg.ell
    u_mix = np.sin(X) * (1 + 0.1 * np.cos(2 * Y)) + 0.3 * np.sin(2 * X) * (Y / ell)
    u_mix = u_mix - u_mix.min() + 0.05
    assert polarization_energy_gap(u_mix, default_system) > 1e-4

    # random positive fields: never below -1e-10
    for _ in range(30):
        vals = rng.uniform(0.02, 1.0, size=grid.shape)
        assert polarization_energy_gap(vals, default_system) >= -1e-10


def test_energy_gap_vanishes_for_converged_optimal_pair(default_system):
    # at a rearrangement fixed point the eigenfunction is balanced enough
    # that polarization leaves the kernel form unchanged to solver noise
    from hingedplate import minimize

    trace = minimize(default_system,
                     uniform_density(default_system))
    assert trace.status == "fixed_point"
    u = default_system.grid_values(trace.final_eigenpair.u)
    gap = polarization_energy_gap(u, default_system)
    form = abs(theta1_quotient(trace.final_density, u))
    assert abs(gap) <= 1e-8 * max(form, 1.0)


def test_certify_polarization_bundle(default_system):
    reports = certify_polarization(default_system)
    ids = [r.claim_id for r in reports]
    assert len(ids) == len(set(ids))
    for rep in reports:
        assert rep.passed, f"{rep.claim_id}: margin {rep.min_margin}"


def test_certify_polarization_rearranges_each_field_once(small_system, monkeypatch):
    # for each of the 100 fields: one rearrangement of u and one of its
    # polarization; one polarization of u, one of that (idempotence) and one
    # of p_u u
    import hingedplate.polarization as pol

    counts = {"bang_bang_from_values": 0, "polarize": 0}
    for name in counts:
        original = getattr(pol, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pol, name, counting)
    certify_polarization(small_system)
    assert counts == {"bang_bang_from_values": 2 * 100, "polarize": 3 * 100}


@pytest.mark.parametrize("suite, builds", [
    ("green", 1), ("polarization", 1), ("all", 1), ("series", 0),
], ids=["green", "polarization", "all", "series"])
def test_certification_factors_energy_once(small_cfg, monkeypatch, suite, builds):
    # one PlateSystem per certification run, shared by every suite that
    # needs the operator: one blockwise factorization, none for the series
    calls = []
    build = StiffnessFactor.build

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(StiffnessFactor, "build", counting_build)
    run_suite(suite, small_cfg)
    assert len(calls) == builds


def test_certify_duality_bundle(default_system):
    reports = certify_duality(default_system)
    by_id = {r.claim_id: r for r in reports}
    assert by_id["duality-inverse-eigenvalue"].passed
    assert by_id["duality-trial-bound"].passed
