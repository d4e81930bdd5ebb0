import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hingedplate import (
    PlateConfig,
    PlateSystem,
    apply,
    basis_matrix,
    kernel,
    minimize,
    quadratic_form,
    reflection_gap,
    uniform_density,
)
from hingedplate.green import (
    POSITIVITY_LOADS,
    certify_green,
    certify_positivity_preserving,
    interior_probe_points,
)
from hingedplate.polarization import certify_duality


DIM_1600 = {"n_modes_x": 80, "n_basis_y": 20, "n_quad_x": 160, "n_quad_y": 32}


@pytest.fixture(scope="module")
def dim_1600_system():
    return PlateSystem(PlateConfig(**DIM_1600))


def test_apply_linearity(default_system, rng):
    f = rng.standard_normal(default_system.grid.shape)
    g = rng.standard_normal(default_system.grid.shape)
    u_sum = apply(default_system, f + g)
    u_f = apply(default_system, f)
    u_g = apply(default_system, g)
    scale = np.abs(u_sum).max()
    assert np.abs(u_sum - u_f - u_g).max() <= 1e-12 * scale


def test_apply_eigen_fixed_point(default_system, default_uniform_pair):
    # the first eigenpair satisfies u = lambda1 * (solution of load p u)
    pair = default_uniform_pair
    u_grid = default_system.grid_values(pair.u)
    back = apply(default_system, u_grid)  # p = 1
    recovered = pair.lambda1 * back
    err = np.abs(recovered - pair.u).max() / np.abs(pair.u).max()
    assert err <= 1e-9


def test_apply_positive_loads_positive_solutions(default_system, rng):
    X, Y = default_system.grid.meshgrid()
    for _ in range(50):
        f = rng.uniform(0.0, 1.0, size=default_system.grid.shape)
        f[f < 0.3] = 0.0
        u = apply(default_system, f)
        uvals = default_system.grid_values(u)
        assert uvals.min() > 0.0


def test_inverse_consistency(default_system, rng):
    # energy matrix applied to the solution returns the load
    f = rng.standard_normal(default_system.grid.shape)
    load = default_system.load_vector(f)
    u = apply(default_system, f)
    back = default_system.factor.matvec(u)
    assert np.abs(back - load).max() <= 1e-10 * np.abs(load).max()
    # the kernel quadratic pairing is exactly symmetric in its two loads
    g = rng.standard_normal(default_system.grid.shape)
    load_g = default_system.load_vector(g)
    pair_fg = load_g @ default_system.factor.solve(load)
    pair_gf = load @ default_system.factor.solve(load_g)
    assert pair_fg == pytest.approx(pair_gf, rel=1e-12)


def test_kernel_symmetry_and_boundary(default_system, rng):
    pts = interior_probe_points(default_system, 8, 5)
    G = kernel(default_system, pts, pts)
    assert np.abs(G - G.T).max() <= 1e-13 * np.abs(G).max()
    ys = np.linspace(-default_system.cfg.ell, default_system.cfg.ell, 5)
    for x_edge in (0.0, math.pi):
        edge = ([x_edge], ys)
        G_edge = kernel(default_system, edge, pts)
        assert np.abs(G_edge).max() <= 1e-13


def test_kernel_positive_on_probe_lattice(default_system):
    pts = interior_probe_points(default_system, 20, 10)
    G = kernel(default_system, pts, pts)
    assert G.shape == (200, 200)
    assert G.min() > 0.0


def test_kernel_dx_signs(default_system):
    probes = interior_probe_points(default_system, 15, 7)
    ys = np.linspace(-default_system.cfg.ell, default_system.cfg.ell, 5)
    assert kernel(default_system, ([0.0], ys), probes, dx=1).min() > 0.0
    assert kernel(default_system, ([math.pi], ys), probes, dx=1).max() < 0.0
    mid = kernel(default_system, ([math.pi / 2], ys), probes, dx=1)
    rho = np.repeat(probes[0], probes[1].size)  # source x of each column
    assert mid[:, rho < math.pi / 2 - 1e-9].max() < 0.0
    assert mid[:, rho > math.pi / 2 + 1e-9].min() > 0.0
    # source on the midline: derivative vanishes there
    on_mid = kernel(default_system, ([math.pi / 2], ys), ([math.pi / 2], [0.1]), dx=1)
    assert np.abs(on_mid).max() <= 1e-12


def test_reflection_identities_exact(default_system):
    pts = interior_probe_points(default_system, 10, 5)
    mirrored = (math.pi - pts[0], pts[1])
    G = kernel(default_system, pts, pts)
    G_pair = kernel(default_system, mirrored, mirrored)
    assert np.abs(G - G_pair).max() <= 1e-12 * np.abs(G).max()
    G_src = kernel(default_system, pts, mirrored)
    G_tgt = kernel(default_system, mirrored, pts)
    assert np.abs(G_src - G_tgt).max() <= 1e-12 * np.abs(G).max()


def test_reflection_gap_positive_inside_half(default_system):
    half = interior_probe_points(default_system, 12, 6, half_plane=True)
    assert reflection_gap(default_system, half) > 0.0
    # single interior pair keeps a visible margin
    single = ([math.pi / 4], [0.0])
    assert reflection_gap(default_system, single) > 1e-8
    # on the midline the reflection is the identity: gap exactly zero
    mid = ([math.pi / 2], [0.0])
    G_mid = kernel(default_system, mid, mid).item()
    mirrored = ([math.pi - math.pi / 2], [0.0])
    G_mirror = kernel(default_system, mirrored, mid).item()
    assert G_mid - G_mirror == pytest.approx(0.0, abs=1e-15)
    for x in (0.0, math.pi / 2, 2.0, -0.1):
        with pytest.raises(ValueError):
            reflection_gap(default_system, ([x], [0.0]))
    with pytest.raises(ValueError):  # one bad abscissa in a lattice
        reflection_gap(default_system, ([0.3, 0.6, 1.6], [0.0, 0.1]))


def _dense_kernel(system, targets, sources, dx=0):
    """Bt^T K^-1 Bs from (dimension x points) basis matrices of two lattices."""
    def points(lattice):
        xs, ys = (np.atleast_1d(np.asarray(a, dtype=float)) for a in lattice)
        return np.column_stack([np.repeat(xs, ys.size), np.tile(ys, xs.size)])

    Bs = basis_matrix(system.cfg, points(sources))
    Bt = basis_matrix(system.cfg, points(targets), dx=dx)
    return Bt.T @ system.factor.solve(Bs)


@pytest.mark.parametrize("size", ["default", "dim-1600"])
def test_kernel_matches_the_dense_reference(size, default_system, dim_1600_system):
    system = default_system if size == "default" else dim_1600_system
    probes = interior_probe_points(system, 20, 10)
    mirrored = (math.pi - probes[0], probes[1])
    point, other = ([1.0], [0.2]), ([2.0], [-0.3])
    ys = np.linspace(-system.cfg.ell, system.cfg.ell, 7)
    pairs = [(probes, probes), (mirrored, probes), (probes, mirrored), (point, other),
             (probes, ([0.0], ys)), (probes, ([math.pi], ys))]
    scale = np.abs(kernel(system, probes, probes)).max()
    for sources, targets in pairs:
        G = kernel(system, targets, sources)
        assert np.abs(G - _dense_kernel(system, targets, sources)).max() <= 1e-13 * scale
    for x0 in (0.0, math.pi / 2, math.pi):
        dG = kernel(system, ([x0], ys), probes, dx=1)
        ref = _dense_kernel(system, ([x0], ys), probes, dx=1)
        assert dG.shape == ref.shape == (ys.size, 200)
        assert np.abs(dG - ref).max() <= 1e-13 * scale


def test_quadratic_form_matches_direct_pairing(default_system, rng):
    f = rng.standard_normal(default_system.grid.shape)
    u = apply(default_system, f)
    w = default_system.grid.weights
    direct = float(np.sum(w * default_system.grid_values(u) * f))
    assert quadratic_form(default_system, f) == pytest.approx(direct, rel=1e-12)


@pytest.fixture(scope="module")
def default_green_reports(default_system):
    return certify_green(default_system)


def test_certify_green_all_pass(default_green_reports):
    reports = default_green_reports
    ids = [r.claim_id for r in reports]
    assert len(ids) == len(set(ids))
    for r in reports:
        assert r.passed, f"{r.claim_id} failed with margin {r.min_margin}"
        assert r.probe_count >= 200 or r.claim_id.startswith("solution")
        assert "n_modes_x" in r.resolution


def test_certify_green_underresolved_reports(default_cfg, default_green_reports):
    # a coarse run still reports every claim, each tagged with its resolution
    cfg = replace(default_cfg, n_modes_x=2, n_basis_y=3)
    reports = certify_green(PlateSystem(cfg))
    assert [r.claim_id for r in reports] == [r.claim_id for r in default_green_reports]
    for r in reports:
        assert "n_modes_x=2" in r.resolution  # failures attributable to resolution


def test_certify_green_builds_no_basis_matrix(dim_1600_system, monkeypatch):
    # every kernel table is summed mode by mode from per-axis tables: no
    # (dimension x points) basis matrix, so the suite's working memory at
    # dim 1600 stays a few MB (21.8 MB with basis matrices and their K^-1
    # images)
    def no_basis_matrix(*args, **kwargs):
        raise AssertionError("certify_green built a basis matrix")

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "hingedplate" and hasattr(module, "basis_matrix"):
            monkeypatch.setattr(module, "basis_matrix", no_basis_matrix)
    tracemalloc.start()
    try:
        certify_green(dim_1600_system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_load_vector_reuses_the_system_tables(small_system, rng, count_calls):
    # the system builds its y-tables once; loads, every sweep of the
    # rearrangement loop and the certifications' field samples only read
    # them, and every sample is one call of the lattice sampler
    built, sampled = count_calls("_legendre_tables"), count_calls("evaluate_on_grid")
    for _ in range(3):
        quadratic_form(small_system, rng.standard_normal(small_system.grid.shape))
    assert built == [] and sampled == []
    trace = minimize(small_system, uniform_density(small_system))
    assert built == [] and len(sampled) == len(trace.records)  # one rearrange a sweep
    sampled.clear()
    certify_positivity_preserving(small_system)
    assert len(sampled) == 2 * POSITIVITY_LOADS  # the grid and the two edges, per load
    certify_duality(small_system)
    assert built == []


def test_positivity_suite_draws_only_nonzero_loads():
    # on 4 x 2 nodes one of the draws zeroed every node; its zero solution
    # failed both claims, whose statement covers nonzero loads only
    system = PlateSystem(PlateConfig(n_modes_x=2, n_basis_y=2, n_quad_x=4, n_quad_y=2))
    reports = certify_positivity_preserving(system)
    assert [r.claim_id for r in reports] == ["solution-positivity", "solution-edge-slopes"]
    assert all(r.passed and r.min_margin > 0.0 for r in reports)


def test_positivity_preserving_certification(default_system):
    reports = certify_positivity_preserving(default_system)
    by_id = {r.claim_id: r for r in reports}
    assert by_id["solution-positivity"].passed
    assert by_id["solution-edge-slopes"].passed
    assert by_id["solution-positivity"].min_margin > 0.0
