"""Discrete solution operator and its influence kernel.

The solution operator of a configuration is its `PlateSystem`, which
inverts the energy form against an L2 load by its blockwise solve.  The
kernel G_h(P, Q) = b(P)^T K^{-1} b(Q), with b the basis evaluation vector,
is the discrete stand-in for the influence function of the plate.
Positivity, edge-slope signs and the reflection structure across x = pi/2
are the properties everything in the symmetry analysis rests on, and they
are certified here numerically at a recorded resolution.
"""

from __future__ import annotations

import numpy as np

from .basis import SpectralField
from .certify import make_report
from .grid import QuadratureGrid
from .optimize import PlateSystem

POSITIVITY_LOADS = 50
POSITIVITY_SEED = 2357
# probe lattice of the kernel claims, x by y
PROBES_X = 20
PROBES_Y = 10


def apply(system: PlateSystem, f: np.ndarray) -> SpectralField:
    """Solve the plate problem with the load of node values f."""
    c = system.factor.solve(system.load_vector(f))
    return SpectralField(system.basis, c)


def quadratic_form(system: PlateSystem, f: np.ndarray) -> float:
    """Energy pairing int (G f) f of node values f, as load^T K^{-1} load."""
    load = system.load_vector(f)
    return float(load @ system.factor.solve(load))


def green_matrix(system: PlateSystem, sources: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Kernel values G_h(target, source), shape (n_targets, n_sources)."""
    Bs = system.basis.eval_matrix(np.atleast_2d(sources))
    Bt = system.basis.eval_matrix(np.atleast_2d(targets))
    return Bt.T @ system.factor.solve(Bs)


def green_dx(system: PlateSystem, x0: float, ys: np.ndarray,
             sources: np.ndarray) -> np.ndarray:
    """x-derivative of the kernel at targets (x0, y), shape (len(ys), n_sources)."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    targets = np.column_stack([np.full(ys.size, float(x0)), ys])
    Bt = system.basis.eval_matrix(targets, dx=1)
    Bs = system.basis.eval_matrix(np.atleast_2d(sources))
    return Bt.T @ system.factor.solve(Bs)


def reflection_gap(system: PlateSystem, probes: np.ndarray) -> float:
    """Worst margin of G(x,y,r,w) over its two single reflections.

    Probes must lie strictly inside the left half; the margin
    G - max(G(pi-x, ...), G(..., pi-r)) is expected strictly positive there.
    """
    probes = np.atleast_2d(probes)
    if np.any(probes[:, 0] >= np.pi / 2) or np.any(probes[:, 0] <= 0):
        raise ValueError("reflection-gap probes must satisfy 0 < x < pi/2")
    mirrored = np.column_stack([np.pi - probes[:, 0], probes[:, 1]])
    B = system.basis.eval_matrix(probes)
    Bm = system.basis.eval_matrix(mirrored)
    KiB = system.factor.solve(B)
    G = B.T @ KiB           # G(x, r)
    Gm = Bm.T @ KiB         # G(pi-x, r)
    Gr = B.T @ system.factor.solve(Bm)  # G(x, pi-r)
    return float(np.min(G - np.maximum(Gm, Gr)))


def interior_probe_points(grid: QuadratureGrid, nx: int, ny: int,
                          half_plane: bool = False) -> np.ndarray:
    """Probe lattice one quadrature cell away from the open x-boundaries."""
    x_lo, x_hi = grid.nodes_x[1], grid.nodes_x[-2]
    if half_plane:
        x_hi = np.pi / 2 - (np.pi / 2 - x_lo) / 50.0
    xs = np.linspace(x_lo, x_hi, nx)
    ys = np.linspace(-grid.ell, grid.ell, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def certify_green(system: PlateSystem) -> list:
    """Run every kernel certification at the system's resolution.

    Each source block is evaluated and solved once, K^-1 B for the probes
    and for their mirror images, and every kernel table is a target block
    applied to one of them.
    """
    cfg = system.cfg
    basis, solve = system.basis, system.factor.solve
    res = f"n_modes_x={cfg.n_modes_x}, n_basis_y={cfg.n_basis_y}"
    reports = []

    probes = interior_probe_points(system.grid, PROBES_X, PROBES_Y)
    B = basis.eval_matrix(probes)
    KiB = solve(B)
    G = B.T @ KiB
    reports.append(make_report(
        "kernel-positive", probes.shape[0] ** 2, float(G.min()), res, bool(G.min() > 0.0),
    ))

    ys = np.linspace(-cfg.ell, cfg.ell, 7)

    def dx_targets(x0):
        return basis.eval_matrix(np.column_stack([np.full(ys.size, x0), ys]), dx=1)

    g0 = dx_targets(0.0).T @ KiB
    reports.append(make_report(
        "kernel-dx-positive-at-0", g0.size, float(g0.min()), res, bool(g0.min() > 0.0),
    ))
    gpi = dx_targets(np.pi).T @ KiB
    reports.append(make_report(
        "kernel-dx-negative-at-pi", gpi.size, float(-gpi.max()), res, bool(gpi.max() < 0.0),
    ))

    Dmid = dx_targets(np.pi / 2)
    gmid = Dmid.T @ KiB
    rho = probes[:, 0]
    left = gmid[:, rho < np.pi / 2 - 1e-12]
    right = gmid[:, rho > np.pi / 2 + 1e-12]
    mid_sources = np.column_stack([np.full(5, np.pi / 2), np.linspace(-cfg.ell, cfg.ell, 5)])
    on_mid = Dmid.T @ solve(basis.eval_matrix(mid_sources))
    margin = min(float(-left.max()), float(right.min()), float(1e-12 - np.abs(on_mid).max()))
    ok = left.max() < 0.0 and right.min() > 0.0 and np.abs(on_mid).max() <= 1e-12
    reports.append(make_report(
        "kernel-dx-split-at-midline", gmid.size + on_mid.size, margin, res, bool(ok),
    ))

    Bm = basis.eval_matrix(np.column_stack([np.pi - probes[:, 0], probes[:, 1]]))
    KiBm = solve(Bm)
    G_both = Bm.T @ KiBm
    err_pair = float(np.abs(G - G_both).max())
    reports.append(make_report(
        "kernel-mirror-pair", G.size, 1e-12 - err_pair, res, bool(err_pair <= 1e-12),
    ))
    G_src = B.T @ KiBm              # G(target, mirrored source)
    G_tgt = Bm.T @ KiB              # G(mirrored target, source)
    err_cross = float(np.abs(G_src - G_tgt).max())
    reports.append(make_report(
        "kernel-mirror-cross", G.size, 1e-12 - err_cross, res, bool(err_cross <= 1e-12),
    ))

    half = interior_probe_points(system.grid, PROBES_X, PROBES_Y, half_plane=True)
    gap = reflection_gap(system, half)
    reports.append(make_report(
        "kernel-reflection-gap", half.shape[0] ** 2, gap, res, bool(gap > 0.0),
    ))

    reports.extend(certify_positivity_preserving(system))
    return reports


def certify_positivity_preserving(system: PlateSystem) -> list:
    """Random nonnegative loads: strictly positive solutions, strict edge slopes."""
    cfg = system.cfg
    res = f"n_modes_x={cfg.n_modes_x}, n_basis_y={cfg.n_basis_y}"
    rng = np.random.default_rng(POSITIVITY_SEED)
    X, Y = system.grid.meshgrid()
    ys = system.grid.nodes_y
    D0 = system.basis.eval_matrix(np.column_stack([np.zeros(ys.size), ys]), dx=1)
    Dpi = system.basis.eval_matrix(np.column_stack([np.full(ys.size, np.pi), ys]), dx=1)
    min_u, min_slope = np.inf, np.inf
    total = 0
    for _ in range(POSITIVITY_LOADS):
        f = _random_nonnegative_load(rng, X, Y, cfg.ell)
        u = apply(system, f)
        uvals = system.grid_values(u)
        min_u = min(min_u, float(uvals.min()))
        s0 = u.coefficients @ D0
        spi = u.coefficients @ Dpi
        min_slope = min(min_slope, float(s0.min()), float(-spi.max()))
        total += uvals.size
    return [
        make_report("solution-positivity", total, min_u, res, bool(min_u > 0.0)),
        make_report("solution-edge-slopes", 2 * POSITIVITY_LOADS * ys.size, min_slope, res,
                    bool(min_slope > 0.0)),
    ]


def _random_nonnegative_load(rng, X, Y, ell):
    kind = rng.integers(0, 3)
    if kind == 0:
        cx, cy = rng.uniform(0.3, np.pi - 0.3), rng.uniform(-0.6 * ell, 0.6 * ell)
        s = rng.uniform(0.15, 0.8)
        return np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * s * s))
    if kind == 1:
        a = rng.uniform(0.0, 2.0, size=3)
        return a[0] + a[1] * np.sin(X) + a[2] * (Y / ell) ** 2
    f = rng.uniform(0.0, 1.0, size=X.shape)
    f[f < rng.uniform(0.2, 0.8)] = 0.0
    return f
