"""Discrete solution operator and its influence kernel.

The solution operator of a configuration is its `PlateSystem`, which
inverts the energy form against an L2 load by its blockwise solve.  The
kernel G_h(P, Q) = b(P)^T K^{-1} b(Q), with b the basis evaluation vector,
is the discrete stand-in for the influence function of the plate.
Positivity, edge-slope signs and the reflection structure across x = pi/2
are the properties everything in the symmetry analysis rests on, and they
are certified here numerically at a recorded resolution.

Every point set probed here is a tensor lattice xs x ys, passed as its
(xs, ys) axes.  K is block diagonal over the sine mode, so the kernel
between two lattices is summed mode by mode from per-axis tables: the
J x J products Psi_t K_m^-1 Psi_s^T of the y-tables and two sine tables
(sum factorization).  For 200 x 200 probes at dim 1600 that is 3.2 M
multiply-adds and 1.3 MB of working memory; no (dimension x points) basis
matrix is formed.
"""

from __future__ import annotations

import numpy as np

from .basis import _legendre_tables, _sine_table, evaluate_on_grid
from .certify import make_report
from .optimize import PlateSystem

POSITIVITY_LOADS = 50
POSITIVITY_SEED = 2357
# probe lattice of the kernel claims, x by y
PROBES_X = 20
PROBES_Y = 10


def apply(system: PlateSystem, f: np.ndarray) -> np.ndarray:
    """Coefficient vector of the plate's solution under the load of node
    values f."""
    return system.factor.solve(system.load_vector(f))


def quadratic_form(system: PlateSystem, f: np.ndarray) -> float:
    """Energy pairing int (G f) f of node values f, as load^T K^{-1} load."""
    load = system.load_vector(f)
    return float(load @ system.factor.solve(load))


def kernel(system: PlateSystem, targets, sources, dx: int = 0) -> np.ndarray:
    """G_h(target, source), or its dx-th target x-derivative, between two
    (xs, ys) lattices, shape (n_targets, n_sources) with points in x-major
    order: G[(a, b), (c, d)] = sum_m tx[m, a] sx[m, c] H[m, b, d] with
    H = Psi_t K_m^-1 Psi_s^T."""
    (xt, yt), (xs, ys) = targets, sources
    cfg = system.cfg
    psi_t, psi_s = (_legendre_tables(y, cfg.n_basis_y, cfg.ell)[0] for y in (yt, ys))
    H = psi_t @ system.factor.inverse @ psi_s.T                  # (M, n_yt, n_ys)
    sx = _sine_table(cfg.n_modes_x, xs, 0)
    Q = sx[:, None, :, None] * H[:, :, None, :]                  # (M, n_yt, n_xs, n_ys)
    G = _sine_table(cfg.n_modes_x, xt, dx).T @ Q.reshape(cfg.n_modes_x, -1)
    return G.reshape(-1, Q.shape[2] * Q.shape[3])


def reflection_gap(system: PlateSystem, probes) -> float:
    """Worst margin of G(x,y,r,w) over its two single reflections.

    `probes` is an (xs, ys) lattice strictly inside the left half; the margin
    G - max(G(pi-x, ...), G(..., pi-r)) is expected strictly positive there.
    """
    xs, ys = np.asarray(probes[0], dtype=float), probes[1]
    if np.any(xs >= np.pi / 2) or np.any(xs <= 0):
        raise ValueError("reflection-gap probes must satisfy 0 < x < pi/2")
    probes, mirrored = (xs, ys), (np.pi - xs, ys)
    G = kernel(system, probes, probes)
    Gm = kernel(system, mirrored, probes)    # G(pi-x, r)
    Gr = kernel(system, probes, mirrored)    # G(x, pi-r)
    return float(np.min(G - np.maximum(Gm, Gr)))


def interior_probe_points(system: PlateSystem, nx: int, ny: int, half_plane: bool = False):
    """Probe lattice one grid cell inside the open x-boundaries, as its
    (xs, ys) axes; on two x-nodes, between the outermost nodes."""
    nodes_x, ell = system.grid.nodes_x, system.cfg.ell
    k = min(1, nodes_x.size // 2 - 1)
    x_lo, x_hi = nodes_x[k], nodes_x[-1 - k]
    if half_plane:
        x_hi = np.pi / 2 - (np.pi / 2 - x_lo) / 50.0
    return np.linspace(x_lo, x_hi, nx), np.linspace(-ell, ell, ny)


def certify_green(system: PlateSystem) -> list:
    """Run every kernel certification at the system's resolution."""
    cfg = system.cfg
    res = f"n_modes_x={cfg.n_modes_x}, n_basis_y={cfg.n_basis_y}"
    reports = []

    probes = interior_probe_points(system, PROBES_X, PROBES_Y)
    G = kernel(system, probes, probes)
    reports.append(make_report("kernel-positive", G.size, G.min(), res))

    ys = np.linspace(-cfg.ell, cfg.ell, 7)
    g0 = kernel(system, ([0.0], ys), probes, dx=1)
    reports.append(make_report("kernel-dx-positive-at-0", g0.size, g0.min(), res))
    gpi = kernel(system, ([np.pi], ys), probes, dx=1)
    reports.append(make_report("kernel-dx-negative-at-pi", gpi.size, -gpi.max(), res))

    gmid = kernel(system, ([np.pi / 2], ys), probes, dx=1)
    rho = np.repeat(probes[0], probes[1].size)
    left = gmid[:, rho < np.pi / 2 - 1e-12]
    right = gmid[:, rho > np.pi / 2 + 1e-12]
    on_mid = kernel(system, ([np.pi / 2], ys),
                    ([np.pi / 2], np.linspace(-cfg.ell, cfg.ell, 5)), dx=1)
    margin = min(float(-left.max()), float(right.min()), float(1e-12 - np.abs(on_mid).max()))
    reports.append(make_report(
        "kernel-dx-split-at-midline", gmid.size + on_mid.size, margin, res))

    mirrored = (np.pi - probes[0], probes[1])
    err_pair = np.abs(G - kernel(system, mirrored, mirrored)).max()
    reports.append(make_report("kernel-mirror-pair", G.size, err_pair, res))
    # G(target, mirrored source) against G(mirrored target, source)
    err_cross = np.abs(kernel(system, probes, mirrored) - kernel(system, mirrored, probes)).max()
    reports.append(make_report("kernel-mirror-cross", G.size, err_cross, res))

    half = interior_probe_points(system, PROBES_X, PROBES_Y, half_plane=True)
    reports.append(make_report("kernel-reflection-gap", (half[0].size * half[1].size) ** 2,
                               reflection_gap(system, half), res))

    reports.extend(certify_positivity_preserving(system))
    return reports


def certify_positivity_preserving(system: PlateSystem) -> list:
    """Random nonnegative loads: strictly positive solutions, strict edge slopes."""
    cfg = system.cfg
    res = f"n_modes_x={cfg.n_modes_x}, n_basis_y={cfg.n_basis_y}"
    rng = np.random.default_rng(POSITIVITY_SEED)
    X, Y = system.grid.meshgrid()
    # x-slopes on the edges x = 0, pi, at the y nodes
    sx = _sine_table(cfg.n_modes_x, np.array([0.0, np.pi]), 1)
    min_u, min_slope = np.inf, np.inf
    total = 0
    for _ in range(POSITIVITY_LOADS):
        f = np.zeros(X.shape)
        while not f.any():  # the claims cover nonzero loads only
            f = _random_nonnegative_load(rng, X, Y, cfg.ell)
        u = apply(system, f)
        uvals = system.grid_values(u)
        min_u = min(min_u, float(uvals.min()))
        s0, spi = evaluate_on_grid(u, sx, system.L)
        min_slope = min(min_slope, float(s0.min()), float(-spi.max()))
        total += uvals.size
    return [
        make_report("solution-positivity", total, min_u, res),
        make_report("solution-edge-slopes", 2 * POSITIVITY_LOADS * system.grid.nodes_y.size,
                    min_slope, res),
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
