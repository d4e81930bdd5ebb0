import inspect
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import hingedplate.optimize
from hingedplate import (
    DensityField,
    PlateConfig,
    PlateSystem,
    analyze_optimum,
    bang_bang_from_values,
    midline_slope_check,
    minimize,
    random_admissible_density,
    rearrange,
    strip_density,
    uniform_density,
)
from hingedplate.optimize import LEFT_DOMINANT, RIGHT_DOMINANT, SYMMETRIC, AnalysisError
from hingedplate.polarization import theta1_quotient


def _mode_field(system, terms):
    c = np.zeros(system.dimension)
    for (m, j), coeff in terms.items():
        c[(m - 1) * system.cfg.n_basis_y + j] = coeff
    return c


def test_rearrange_sine_strip_threshold(small_system):
    # sublevel set of sin(x) at fraction 0.8 is {x < 0.4 pi} U {x > 0.6 pi},
    # so the threshold is sin^2(0.4 pi) up to one quadrature cell
    system = small_system
    u = _mode_field(system, {(1, 0): 1.0})
    density, t = rearrange(u, system)
    x0 = 0.4 * math.pi
    cell = np.max(np.diff(system.grid.nodes_x))
    slope = abs(math.sin(2 * x0))  # derivative of sin^2 at the cut
    assert abs(t - math.sin(x0) ** 2) <= slope * cell
    # alpha sits on the two outer strips, beta on the middle
    assign = density.alpha_assignment()
    mid = system.grid.nodes_x[np.argmin(np.abs(system.grid.nodes_x - math.pi / 2))]
    i_mid = int(np.argmin(np.abs(system.grid.nodes_x - mid)))
    assert not assign[i_mid, :].any()
    assert assign[0, :].all() and assign[-1, :].all()


def test_rearrange_constant_tie_break(small_system):
    # all nodes tie: lexicographic order admits whole low-x columns first
    system = small_system
    density, t = bang_bang_from_values(np.ones(system.grid.shape), system)
    assert t == pytest.approx(1.0)
    assign = density.alpha_assignment()
    per_column = assign.all(axis=1) | (~assign).any(axis=1)
    assert per_column.all()
    # columns are filled left to right: once a column holds beta, all later do
    col_has_beta = (~assign).any(axis=1)
    first_beta = int(np.argmax(col_has_beta))
    assert col_has_beta[first_beta:].all()
    assert not col_has_beta[:first_beta].any()


def _lexsort_order(grid, key_flat):
    # reference fill order: ascending (key, x, y), the coordinates as keys
    nx, ny = grid.shape
    return np.lexsort((np.tile(grid.nodes_y, nx), np.repeat(grid.nodes_x, ny), key_flat))


@pytest.mark.parametrize("cfg", [None, PlateConfig(n_quad_x=160, n_quad_y=32)],
                         ids=["32x16", "160x32"])
def test_fill_order_is_lexsort_on_value_x_y(small_system, rng, monkeypatch, cfg):
    # the stable sort on the value alone orders nodes as the (value, x, y)
    # lexsort does, on fields with no ties, many ties, signed zeros and
    # exact mirror symmetry; the density is the lexsort fill bit for bit
    system = small_system if cfg is None else PlateSystem(cfg)
    grid, cfg = system.grid, system.cfg
    fill = hingedplate.optimize._fill_with_gray_node
    orders = []
    monkeypatch.setattr(hingedplate.optimize, "_fill_with_gray_node",
                        lambda order, *args: orders.append(order) or fill(order, *args))
    raw = rng.uniform(0.05, 2.0, size=grid.shape)
    fields = {
        "random": raw,
        "tied": np.round(raw, 1),
        "signed-zero": rng.choice([-0.0, 0.0, 1.0], size=grid.shape),
        "mirror": raw + raw[::-1],
        "constant": np.ones(grid.shape),
    }
    for name, vals in fields.items():
        density, _ = bang_bang_from_values(vals, system)
        ref = _lexsort_order(grid, vals.ravel())
        assert np.array_equal(orders.pop(), ref), name
        p, _ = fill(ref, system, cfg.sublevel_fraction * cfg.target_mass,
                    cfg.alpha, cfg.beta)
        assert np.array_equal(density.values.ravel().view(np.int64), p.view(np.int64)), name


def test_rearrange_requires_positive_field(small_system):
    system = small_system
    u = _mode_field(system, {(2, 0): 1.0})  # sin(2x) changes sign
    with pytest.raises(AnalysisError, match="strictly positive"):
        rearrange(u, system)


def test_rearranged_density_is_admissible(small_system, rng):
    system = small_system
    area = system.cfg.target_mass
    for _ in range(10):
        vals = rng.uniform(0.05, 2.0, size=system.grid.shape)
        density, t = bang_bang_from_values(vals, system)
        assert density.mass == pytest.approx(area, rel=1e-12)
        assert density.gray_nodes() <= 1
        target = system.cfg.sublevel_fraction * area
        assert abs(density.sublevel_measure() - target) <= system.grid.weights.max()


def test_rearranged_density_when_the_light_share_rounds_to_one(small_cfg, rng):
    # at beta = 1e100 the light share (beta-1)/(beta-alpha) is 1.0 in double
    # precision: every node but the highest-valued one takes alpha, and that
    # gray node carries the remaining mass
    system = PlateSystem(replace(small_cfg, beta=1e100))
    cfg = system.cfg
    assert cfg.sublevel_fraction == 1.0
    vals = rng.uniform(0.05, 2.0, size=system.grid.shape)
    density, t = bang_bang_from_values(vals, system)
    top = np.argmax(vals)
    assert t == vals.flat[top] ** 2
    assert np.all(np.delete(density.values.ravel(), top) == cfg.alpha)
    assert density.gray_nodes() == 1
    assert density.mass == pytest.approx(cfg.target_mass, rel=1e-12)


def test_rearrange_maximizes_weighted_mass(small_system, rng):
    # the returned density beats 200 random admissible competitors on int p u^2
    system = small_system
    vals = rng.uniform(0.05, 2.0, size=system.grid.shape)
    density, _ = bang_bang_from_values(vals, system)
    w = system.grid.weights
    best = np.sum(w * density.values * vals ** 2)
    for _ in range(200):
        q = random_admissible_density(system, rng)
        assert best >= np.sum(w * q.values * vals ** 2) - 1e-10 * best


def test_one_rearrangement_step_decreases_lambda(small_system, rng):
    system = small_system
    p = random_admissible_density(system, rng)
    pair = system.solve_density(p)
    p_next, _ = rearrange(pair.u, system)
    pair_next = system.solve_density(p_next)
    assert pair_next.lambda1 <= pair.lambda1 * (1 + 1e-12)


def test_minimize_trace_monotone_and_admissible(small_system, monkeypatch):
    system = small_system
    densities = []
    original = hingedplate.optimize.rearrange

    def spy(*args):
        density, t = original(*args)
        densities.append(density)
        return density, t

    monkeypatch.setattr(hingedplate.optimize, "rearrange", spy)
    trace = minimize(system, uniform_density(system))
    assert trace.status in ("fixed_point", "lambda_stagnant")
    lams = [r.lambda1 for r in trace.records]
    assert all(b <= a * (1 + 1e-10) for a, b in zip(lams, lams[1:]))
    assert len(densities) == len(trace.records)
    area = system.cfg.target_mass
    for density in densities:
        assert density.mass == pytest.approx(area, rel=1e-10)
        assert density.gray_nodes() <= 1
        target = system.cfg.sublevel_fraction * area
        assert abs(density.sublevel_measure() - target) <= system.grid.weights.max()


def test_minimize_single_iteration_cap(small_system, monkeypatch):
    monkeypatch.setattr("hingedplate.optimize.MAX_SWEEPS", 1)
    start = strip_density(small_system, "left")
    trace = minimize(small_system, start)
    assert trace.status == "max_iter"
    assert len(trace.records) == 2  # starting solve plus the capped sweep
    lams = [r.lambda1 for r in trace.records]
    assert lams[1] <= lams[0] * (1 + 1e-10)
    # the closing record carries the eigenvalue of the returned density
    check = small_system.solve_density(trace.final_density)
    assert check.lambda1 == pytest.approx(trace.final_lambda, rel=1e-11)


def test_multistart_reaches_common_limit(rng):
    cfg = PlateConfig(n_modes_x=16, n_basis_y=10, n_quad_x=192, n_quad_y=64)
    system = PlateSystem(cfg)
    starts = [
        uniform_density(system),
        strip_density(system, "left"),
        strip_density(system, "right"),
        random_admissible_density(system, rng),
    ]
    names = ["uniform", "left-heavy", "right-heavy", "random"]
    record = analyze_optimum(system, {n: minimize(system, p) for n, p in zip(names, starts)})
    assert record["cross_start_relative_spread"] <= 1e-8
    # heavy material ends in an x-centered region straddling the midline
    lo, hi = record["heavy_region_x_range"]
    assert lo < math.pi / 2 < hi
    # final assignment symmetric under x -> pi - x within one cell
    assert record["density_mirror_asymmetry_nodes"] <= 2
    assert all(n <= 1 for n in record["gray_nodes_per_start"].values())


def test_analyze_optimum_tie_goes_to_the_first_start(small_system):
    system = small_system
    left = minimize(system, strip_density(system, "left"))
    right = minimize(system, strip_density(system, "right"))
    # the right start's trace closing on the left start's eigenvalue: an exact tie
    tied = replace(right, records=right.records[:-1]
                   + [replace(right.records[-1], lambda1=left.final_lambda)])
    traces = {"left-heavy": left, "right-heavy": tied}
    for first, second in (("left-heavy", "right-heavy"), ("right-heavy", "left-heavy")):
        record = analyze_optimum(system, {first: traces[first], second: traces[second]})
        assert list(record["final_lambda_per_start"]) == [first, second]
        assert record["best_start"] == first
        assert record["cross_start_relative_spread"] == 0.0
        slope = midline_slope_check(traces[first].final_eigenpair.u, system)
        assert record["symmetry_verdict"] == slope.verdict
        assert record["midline_max_abs_slope"] == slope.max_abs_slope


def test_mirror_verdict_modes(small_system):
    system = small_system
    sym = _mode_field(system, {(1, 0): 1.0, (1, 1): 0.2})
    assert midline_slope_check(sym, system).verdict == SYMMETRIC
    left = _mode_field(system, {(1, 0): 1.0, (2, 0): 0.3})
    assert midline_slope_check(left, system).verdict == LEFT_DOMINANT
    right = _mode_field(system, {(1, 0): 1.0, (2, 0): -0.3})
    assert midline_slope_check(right, system).verdict == RIGHT_DOMINANT


def test_mirror_verdict_mixed_sign_errors(small_system):
    system = small_system
    mixed = _mode_field(system, {(1, 0): 1.0, (2, 1): 0.3})  # gap odd in y
    with pytest.raises(AnalysisError, match="mixed sign"):
        midline_slope_check(mixed, system)


def test_midline_slope_signs(small_system):
    system = small_system
    sym = _mode_field(system, {(1, 0): 1.0, (3, 1): 0.1})
    rep = midline_slope_check(sym, system)
    assert rep.verdict == SYMMETRIC
    assert rep.max_abs_slope <= 1e-6

    left = _mode_field(system, {(1, 0): 1.0, (2, 0): 0.3})
    rep = midline_slope_check(left, system)
    assert rep.verdict == LEFT_DOMINANT
    # u_x(pi/2, y) = cos(pi/2) + 0.6 cos(pi) = -0.6
    assert np.allclose(rep.slopes, -0.6, atol=1e-12)

    right = _mode_field(system, {(1, 0): 1.0, (2, 0): -0.3})
    rep = midline_slope_check(right, system)
    assert rep.verdict == RIGHT_DOMINANT
    assert np.allclose(rep.slopes, 0.6, atol=1e-12)


def test_midline_slope_check_evaluates_once(small_system, monkeypatch, count_calls):
    # the mirror verdict and the slope threshold share one grid evaluation,
    # made on the system's tables: no y-table is built for it, and the
    # midline slopes are the one other lattice sample
    calls = []
    grid_values = PlateSystem.grid_values

    def counting(self, *args, **kwargs):
        calls.append(args)
        return grid_values(self, *args, **kwargs)

    monkeypatch.setattr(PlateSystem, "grid_values", counting)
    built, sampled = count_calls("_legendre_tables"), count_calls("evaluate_on_grid")
    left = _mode_field(small_system, {(1, 0): 1.0, (2, 0): 0.3})
    assert midline_slope_check(left, small_system).verdict == LEFT_DOMINANT
    assert len(calls) == 1
    assert built == []
    assert len(sampled) == 2


def test_density_field_validation(small_system):
    system = small_system
    vals = np.ones(system.grid.shape)
    vals[0, 0] = 4.0  # above beta
    with pytest.raises(ValueError, match="bounds"):
        DensityField(system, vals)
    vals = np.ones(system.grid.shape)
    vals[0, 0] = 0.4  # below alpha, still positive
    with pytest.raises(ValueError, match="bounds"):
        DensityField(system, vals)
    vals = np.full(system.grid.shape, 1.2)  # wrong mass
    with pytest.raises(ValueError, match="mass"):
        DensityField(system, vals)


def test_density_bounds_are_exact(small_system):
    # a strip holds nodes at exactly alpha and beta and one gray node; one
    # ulp past either bound is rejected, and one ulp inside makes a second
    # gray node
    cfg = small_system.cfg
    vals = strip_density(small_system, "left").values
    assert vals.min() == cfg.alpha and vals.max() == cfg.beta
    assert DensityField(small_system, vals).gray_nodes() == 1

    def nudged(bound, toward):
        out = vals.copy()
        out[np.unravel_index(np.argmax(vals == bound), vals.shape)] = np.nextafter(bound, toward)
        return out

    for bound, beyond in ((cfg.alpha, 0.0), (cfg.beta, np.inf)):
        with pytest.raises(ValueError, match="bounds"):
            DensityField(small_system, nudged(bound, beyond))
    for bound in (cfg.alpha, cfg.beta):
        assert DensityField(small_system, nudged(bound, 1.0)).gray_nodes() == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_field_rejects_non_finite(small_system, bad):
    # a NaN node passes every comparison of the bounds and mass checks
    system = small_system
    vals = np.ones(system.grid.shape)
    vals[3, 2] = bad
    with pytest.raises(ValueError, match="density values contain non-finite"):
        DensityField(system, vals)


def test_a_density_is_made_on_its_system():
    # the system is a density's one record of its grid and config: no
    # density function takes either on its own
    assert [f.name for f in fields(DensityField)] == ["system", "values"]
    module = hingedplate.optimize
    funcs = [fn for name, fn in vars(module).items() if inspect.isfunction(fn)
             and fn.__module__ == module.__name__ and not name.startswith("_")]
    funcs += [module._fill_with_gray_node, module._close_mass, theta1_quotient]
    assert uniform_density in funcs and bang_bang_from_values in funcs
    for fn in funcs:
        assert not {"grid", "cfg"} & set(inspect.signature(fn).parameters), fn.__name__


def test_solve_rejects_a_density_made_on_another_config(small_system):
    # a beta = 10 strip on the same grid holds values above this system's
    # beta = 3; solving it here would mix two plates
    other = PlateSystem(replace(small_system.cfg, beta=10.0))
    p = strip_density(other, "left")
    assert p.values.max() > small_system.cfg.beta
    with pytest.raises(ValueError, match="another config"):
        small_system.solve_density(p)
    with pytest.raises(ValueError, match="another config"):
        minimize(small_system, p)


def test_solve_accepts_a_density_made_on_an_equal_system(small_system):
    # equal configs build identical grids, so a separately built system's
    # density solves as this system's own does, bit for bit
    twin = PlateSystem(replace(small_system.cfg))
    assert twin is not small_system
    pair = small_system.solve_density(strip_density(twin, "left"))
    own = small_system.solve_density(strip_density(small_system, "left"))
    assert pair.lambda1 == own.lambda1 and np.array_equal(pair.u, own.u)


def test_random_admissible_density_exact(small_system, rng):
    for _ in range(20):
        p = random_admissible_density(small_system, rng)
        assert p.mass == pytest.approx(small_system.cfg.target_mass, rel=1e-12)
        assert p.values.min() >= small_system.cfg.alpha
        assert p.values.max() <= small_system.cfg.beta


@pytest.mark.parametrize("beta", [1e6, 1e12, 1e100])
def test_random_admissible_density_at_extreme_contrast(beta):
    # the node nearest 1 can sit clipped at alpha here; the mass defect goes
    # to a node inside (alpha, beta), and DensityField checks the mass
    cfg = PlateConfig(n_modes_x=6, n_basis_y=4, n_quad_x=16, n_quad_y=8, beta=beta)
    system = PlateSystem(cfg)
    gen = np.random.default_rng(1)
    for _ in range(20):
        p = random_admissible_density(system, gen)
        assert cfg.alpha <= p.values.min() and p.values.max() <= cfg.beta


def test_random_start_bisection_stops_where_the_full_loop_lands(rng):
    # the shift after the early stop equals that of all 200 halvings, bit
    # for bit; alpha 0.5, beta 1.5 puts the root near 0
    for cfg in (PlateConfig(n_modes_x=8, n_basis_y=6, n_quad_x=32, n_quad_y=16),
                PlateConfig(n_modes_x=8, n_basis_y=6, n_quad_x=32, n_quad_y=16,
                            alpha=0.5, beta=1.5),
                PlateConfig(n_modes_x=8, n_basis_y=6, n_quad_x=32, n_quad_y=16,
                            alpha=0.1, beta=10.0)):
        system = PlateSystem(cfg)
        grid = system.grid
        for _ in range(5):
            state = rng.bit_generator.state
            p = random_admissible_density(system, rng)
            rng.bit_generator.state = state
            raw = rng.uniform(cfg.alpha, cfg.beta, size=grid.shape)
            lo, hi = cfg.alpha - cfg.beta, cfg.beta - cfg.alpha
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                clipped = np.clip(raw + mid, cfg.alpha, cfg.beta)
                if float(np.sum(grid.weights * clipped)) < cfg.target_mass:
                    lo = mid
                else:
                    hi = mid
            full = np.clip(raw + 0.5 * (lo + hi), cfg.alpha, cfg.beta)
            node = np.unravel_index(np.argmin(np.abs(full - 1.0)), grid.shape)
            # every node but the one closing the mass is the shifted value
            keep = np.ones(grid.shape, dtype=bool)
            keep[node] = False
            assert np.array_equal(p.values[keep], full[keep])


def test_produced_densities_mass_at_machine_precision(default_system, rng):
    # every construction path lands within 10 eps of the exact total mass
    system = default_system
    area = system.cfg.target_mass
    tol = 10 * np.finfo(float).eps * area
    produced = [
        uniform_density(system),
        strip_density(system, "left"),
        strip_density(system, "right"),
        random_admissible_density(system, rng),
    ]
    for _ in range(10):
        vals = rng.uniform(0.05, 2.0, size=system.grid.shape)
        produced.append(bang_bang_from_values(vals, system)[0])
    for p in produced:
        assert abs(p.mass - area) <= tol


def test_strip_density_shapes(small_system):
    left = strip_density(small_system, "left")
    right = strip_density(small_system, "right")
    assert left.mass == pytest.approx(small_system.cfg.target_mass, rel=1e-12)
    assert np.array_equal(left.values, right.values[::-1, :])
    # the heavy side really is heavy
    nx = small_system.grid.shape[0]
    assert left.values[: nx // 4].mean() > left.values[-nx // 4:].mean()
    with pytest.raises(ValueError):
        strip_density(small_system, "middle")


@pytest.mark.parametrize("cfg", [PlateConfig(n_modes_x=8, n_basis_y=6, n_quad_x=32, n_quad_y=16),
                                 PlateConfig(), PlateConfig(alpha=0.5, beta=1.5)],
                         ids=["small", "default", "share-one-half"])
def test_right_strip_is_the_mirrored_left_strip_bit_for_bit(cfg):
    # also the right strip of the (-x, x, y) lexsort fill, gray node included
    system = PlateSystem(cfg)
    grid = system.grid
    left = strip_density(system, "left").values
    right = strip_density(system, "right").values
    assert np.array_equal(right.view(np.int64), left[::-1].view(np.int64))
    heavy = (1.0 - cfg.alpha) / (cfg.beta - cfg.alpha) * cfg.target_mass
    ref, _ = hingedplate.optimize._fill_with_gray_node(
        _lexsort_order(grid, -np.repeat(grid.nodes_x, grid.shape[1])), system,
        heavy, cfg.beta, cfg.alpha)
    assert np.array_equal(right.ravel().view(np.int64), ref.view(np.int64))


def test_strip_of_heavy_share_one_half_ends_at_the_midline():
    # the cut falls on the last node of the middle column, so the gray
    # value is beta up to the mass sum's rounding over a small node weight
    # and must be clipped into the bounds
    cfg = PlateConfig(alpha=0.5, beta=1.5)
    system = PlateSystem(cfg)
    nx = system.grid.shape[0]
    for side in ("left", "right"):
        p = strip_density(system, side)
        heavy = p.values[: nx // 2] if side == "left" else p.values[nx // 2:]
        assert np.all(heavy == cfg.beta)
        assert abs(p.mass - cfg.target_mass) <= 10 * np.finfo(float).eps * cfg.target_mass


def test_gradient_sign_diagnostic_reports(small_system):
    from hingedplate.optimize import gradient_sign_diagnostic

    trace = minimize(small_system,
                     uniform_density(small_system))
    table = gradient_sign_diagnostic(trace.final_eigenpair.u, small_system)
    assert set(table) == {"ux_positive_left", "ux_negative_right",
                          "uy_positive_upper", "uy_negative_lower"}
    for entry in table.values():
        assert 0.0 <= entry["fraction"] <= 1.0
        assert entry["nodes"] > 0


def test_int_beta_runs_like_float_beta(small_cfg):
    # an int bound once filled int arrays, truncating every alpha node to 0
    traces = []
    for beta in (3, 3.0):
        system = PlateSystem(replace(small_cfg, beta=beta))
        traces.append(minimize(system, uniform_density(system)))
    assert np.array_equal(traces[0].final_density.values, traces[1].final_density.values)
    assert traces[0].final_lambda == traces[1].final_lambda
