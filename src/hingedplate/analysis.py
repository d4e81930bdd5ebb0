"""Analysis of the optimum: the x-symmetry verdict, midline slopes and
monotonicity table of the optimal plate, and the optimize summary.

The mirror verdict compares u(x) with u(pi-x) on the system's grid; the
midline slope check confirms it by the sign of u_x on x = pi/2; the
gradient sign table reports, never asserts, where u rises toward the
midline and the free edges.  `analyze_optimum` assembles them, with the
heavy region of the best start's density, into one JSON-ready record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _sine_table, evaluate_on_grid
from .optimize import AnalysisError, PlateSystem

LEFT_DOMINANT = "LEFT_DOMINANT"
RIGHT_DOMINANT = "RIGHT_DOMINANT"
SYMMETRIC = "SYMMETRIC"
# Mirror gaps and midline slopes below this fraction of max|u| count as zero.
MIRROR_TOL = 1e-6


def _mirror_verdict(vals: np.ndarray) -> str:
    """SYMMETRIC, LEFT_DOMINANT or RIGHT_DOMINANT from the mirror gaps
    u(x) - u(pi-x) on the left half, zero below MIRROR_TOL * max|u|; a
    mixed sign pattern, which no optimal eigenfunction admits, raises."""
    scale = np.abs(vals).max()
    if scale == 0.0:
        raise ValueError("zero field cannot be classified")
    nx = vals.shape[0]
    diff = vals[: nx // 2] - vals[::-1, :][: nx // 2]
    hi, lo = float(diff.max()), float(diff.min())
    tol = MIRROR_TOL * scale
    if max(abs(hi), abs(lo)) <= tol:
        return SYMMETRIC
    if lo > -tol:
        return LEFT_DOMINANT
    if hi < tol:
        return RIGHT_DOMINANT
    raise AnalysisError(
        f"mirror gaps of mixed sign beyond tolerance "
        f"(min {lo:.3e}, max {hi:.3e}, scale {scale:.3e})"
    )


@dataclass(frozen=True)
class MidlineSlopeReport:
    verdict: str
    slopes: np.ndarray          # u_x(pi/2, y_k) at every y node
    max_abs_slope: float


def midline_slope_check(u: np.ndarray, system: PlateSystem) -> MidlineSlopeReport:
    """Sign of u_x on the midline x = pi/2 (u a coefficient vector), checked
    against the mirror class.

    A left-dominant field must slope downward across the midline at every y,
    a right-dominant one upward, and a symmetric one must be flat there; any
    disagreement raises.  The mirror class reads u on the system's grid.
    """
    vals = system.grid_values(u)
    verdict = _mirror_verdict(vals)
    mid = _sine_table(system.cfg.n_modes_x, np.array([np.pi / 2]), 1)
    slopes = evaluate_on_grid(u, mid, system.L)[0]
    thr = MIRROR_TOL * float(np.abs(vals).max())
    if verdict == SYMMETRIC:
        ok = bool(np.all(np.abs(slopes) <= thr))
    elif verdict == LEFT_DOMINANT:
        ok = bool(np.all(slopes < thr))
    else:
        ok = bool(np.all(slopes > -thr))
    if not ok:
        raise AnalysisError(
            f"midline slopes inconsistent with {verdict}: "
            f"range [{slopes.min():.3e}, {slopes.max():.3e}]"
        )
    return MidlineSlopeReport(
        verdict=verdict, slopes=slopes,
        max_abs_slope=float(np.abs(slopes).max()),
    )


def gradient_sign_diagnostic(u: np.ndarray, system: PlateSystem) -> dict:
    """Observed sign pattern of u_x and u_y, u a coefficient vector, over
    the four half-plates x < pi/2, x > pi/2, y > 0 and y < 0 of the grid.

    Reported, never asserted: each row counts the nodes of its half where
    u rises toward the midline x = pi/2 (the x rows) or toward the nearer
    free edge y = +-ell (the y rows).  Whether the optimum is monotone so
    is an open question; a one-sided optimum, which rises in y across the
    whole plate, holds `uy_negative_lower` nowhere.
    """
    ux = system.grid_values(u, dx=1)
    uy = system.grid_values(u, dy=1)
    X, Y = system.grid.meshgrid()
    left, right = X < np.pi / 2, X > np.pi / 2
    lower, upper = Y < 0, Y > 0
    return {
        "ux_positive_left": _share(ux > 0, left),
        "ux_negative_right": _share(ux < 0, right),
        "uy_positive_upper": _share(uy > 0, upper),
        "uy_negative_lower": _share(uy < 0, lower),
    }


def _share(good: np.ndarray, region: np.ndarray) -> dict:
    total = int(np.sum(region))
    holds = int(np.sum(good & region))
    return {"nodes": total, "holding": holds, "fraction": holds / total if total else 1.0}


def _node_range(nodes):
    """[min, max] of the nodes, or None (JSON null) when there are none: a
    heavy share below one node's weight leaves only the gray node heavy,
    and its value sits below the midpoint, so no node counts as heavy."""
    return [float(nodes.min()), float(nodes.max())] if nodes.size else None


def analyze_optimum(system: PlateSystem, traces: dict) -> dict:
    """The optimize summary of `traces` (start name -> OptimizationTrace, in
    start order): each start's eigenvalue, status and gray nodes, their spread,
    and for the best start (a tie goes to the first) the verdict, asymmetric
    nodes, x and y ranges of heavy nodes and the gradient sign table."""
    lambdas = {n: tr.final_lambda for n, tr in traces.items()}
    best = min(traces, key=lambdas.get)
    trace = traces[best]
    slope = midline_slope_check(trace.final_eigenpair.u, system)
    assign = trace.final_density.alpha_assignment()
    return {
        "final_lambda_per_start": lambdas,
        "cross_start_relative_spread": (max(lambdas.values()) - lambdas[best]) / lambdas[best],
        "best_start": best,
        "symmetry_verdict": slope.verdict,
        "midline_max_abs_slope": slope.max_abs_slope,
        "density_mirror_asymmetry_nodes": int(np.sum(assign != assign[::-1, :])),
        "heavy_region_x_range": _node_range(system.grid.nodes_x[~assign.all(axis=1)]),
        "heavy_region_y_range": _node_range(system.grid.nodes_y[~assign.all(axis=0)]),
        "statuses": {n: tr.status for n, tr in traces.items()},
        "gray_nodes_per_start": {n: tr.final_density.gray_nodes() for n, tr in traces.items()},
        # observed, never asserted: does u rise toward x = pi/2 and y = +-ell
        "gradient_sign_table": gradient_sign_diagnostic(trace.final_eigenpair.u, system),
    }
