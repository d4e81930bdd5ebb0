from dataclasses import replace

import numpy as np
import pytest

from hingedplate import (
    PlateSystem,
    analyze_optimum,
    midline_slope_check,
    minimize,
    strip_density,
    uniform_density,
)
from hingedplate.analysis import (
    LEFT_DOMINANT,
    RIGHT_DOMINANT,
    SYMMETRIC,
    gradient_sign_diagnostic,
)
from hingedplate.eigensolve import Eigenpair
from hingedplate.optimize import AnalysisError, DensityField, OptimizationTrace, TraceRecord


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


def test_mirror_verdict_modes(small_system, mode_field):
    system = small_system
    sym = mode_field(system, {(1, 0): 1.0, (1, 1): 0.2})
    assert midline_slope_check(sym, system).verdict == SYMMETRIC
    left = mode_field(system, {(1, 0): 1.0, (2, 0): 0.3})
    assert midline_slope_check(left, system).verdict == LEFT_DOMINANT
    right = mode_field(system, {(1, 0): 1.0, (2, 0): -0.3})
    assert midline_slope_check(right, system).verdict == RIGHT_DOMINANT


def test_mirror_verdict_mixed_sign_errors(small_system, mode_field):
    system = small_system
    mixed = mode_field(system, {(1, 0): 1.0, (2, 1): 0.3})  # gap odd in y
    with pytest.raises(AnalysisError, match="mixed sign"):
        midline_slope_check(mixed, system)


def test_midline_slope_signs(small_system, mode_field):
    system = small_system
    sym = mode_field(system, {(1, 0): 1.0, (3, 1): 0.1})
    rep = midline_slope_check(sym, system)
    assert rep.verdict == SYMMETRIC
    assert rep.max_abs_slope <= 1e-6

    left = mode_field(system, {(1, 0): 1.0, (2, 0): 0.3})
    rep = midline_slope_check(left, system)
    assert rep.verdict == LEFT_DOMINANT
    # u_x(pi/2, y) = cos(pi/2) + 0.6 cos(pi) = -0.6
    assert np.allclose(rep.slopes, -0.6, atol=1e-12)

    right = mode_field(system, {(1, 0): 1.0, (2, 0): -0.3})
    rep = midline_slope_check(right, system)
    assert rep.verdict == RIGHT_DOMINANT
    assert np.allclose(rep.slopes, 0.6, atol=1e-12)


def test_midline_slope_check_evaluates_once(small_system, mode_field, monkeypatch, count_calls):
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
    left = mode_field(small_system, {(1, 0): 1.0, (2, 0): 0.3})
    assert midline_slope_check(left, small_system).verdict == LEFT_DOMINANT
    assert len(calls) == 1
    assert built == []
    assert len(sampled) == 2


def test_gradient_sign_diagnostic_reports(small_system):
    trace = minimize(small_system,
                     uniform_density(small_system))
    table = gradient_sign_diagnostic(trace.final_eigenpair.u, small_system)
    assert set(table) == {"ux_positive_left", "ux_negative_right",
                          "uy_positive_upper", "uy_negative_lower"}
    for entry in table.values():
        assert 0.0 <= entry["fraction"] <= 1.0
        assert entry["nodes"] > 0


@pytest.mark.parametrize("profile, lower_holds", [(2, True), (1, False)],
                         ids=["rises-toward-both-free-edges", "rises-across-the-plate"])
def test_gradient_sign_table_counts_rises_toward_midline_and_free_edges(
        small_system, mode_field, profile, lower_holds):
    # sin x (P0 + 0.1 P_j(y/ell)): sin x rises toward x = pi/2 from both
    # sides; P2 rises toward both free edges y = +-ell, while P1 rises in y
    # everywhere, so on y < 0 it falls toward the edge y = -ell
    u = mode_field(small_system, {(1, 0): 1.0, (1, profile): 0.1})
    table = gradient_sign_diagnostic(u, small_system)
    half = small_system.grid.shape[0] * small_system.grid.shape[1] // 2
    assert {name: entry["nodes"] for name, entry in table.items()} == dict.fromkeys(
        ("ux_positive_left", "ux_negative_right", "uy_positive_upper", "uy_negative_lower"), half)
    assert {name: entry["holding"] for name, entry in table.items()} == {
        "ux_positive_left": half, "ux_negative_right": half, "uy_positive_upper": half,
        "uy_negative_lower": half if lower_holds else 0}


def _strip_trace(system, u, columns, rows):
    """A one-sweep trace closing on u and on the density that puts beta on
    the node rectangle columns x rows and one lighter value elsewhere."""
    cfg, w = system.cfg, system.grid.weights
    heavy = np.zeros(system.grid.shape, dtype=bool)
    heavy[columns, rows] = True
    light = (cfg.target_mass - cfg.beta * w[heavy].sum()) / w[~heavy].sum()
    density = DensityField(system, np.where(heavy, cfg.beta, light))
    record = TraceRecord(iteration=0, lambda1=1.0, threshold_t=np.nan, sublevel_measure=np.nan,
                         density_change_measure=np.nan, solve_iterations=0, residual=0.0,
                         gap=1.0)
    return OptimizationTrace(records=[record], status="fixed_point", final_density=density,
                             final_eigenpair=Eigenpair(lambda1=1.0, u=u, residual=0.0, gap=1.0,
                                                       iterations=0))


def test_heavy_region_and_mirror_asymmetry_of_a_known_strip(small_system, mode_field):
    # beta on x nodes 3..6 and y nodes 5..9 of the 32 x 16 grid: the heavy
    # ranges are those nodes' coordinates, and every heavy node and its
    # mirror image differ; the band on the two middle x nodes is its own mirror
    system = small_system
    nodes_x, nodes_y = system.grid.nodes_x, system.grid.nodes_y
    u = mode_field(system, {(1, 0): 1.0})
    strip = _strip_trace(system, u, slice(3, 7), slice(5, 10))
    assert strip.final_density.alpha_assignment().sum() == 32 * 16 - 4 * 5
    record = analyze_optimum(system, {"strip": strip})
    assert record["heavy_region_x_range"] == [float(nodes_x[3]), float(nodes_x[6])]
    assert record["heavy_region_y_range"] == [float(nodes_y[5]), float(nodes_y[9])]
    assert record["density_mirror_asymmetry_nodes"] == 2 * 4 * 5
    band = _strip_trace(system, u, slice(15, 17), slice(0, 16))
    record = analyze_optimum(system, {"band": band})
    assert record["heavy_region_x_range"] == [float(nodes_x[15]), float(nodes_x[16])]
    assert record["heavy_region_y_range"] == [float(nodes_y[0]), float(nodes_y[15])]
    assert record["density_mirror_asymmetry_nodes"] == 0
