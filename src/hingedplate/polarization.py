"""Two-point rearrangement across the fixed midline x = pi/2.

Polarizing a node field swaps each mirror pair so the larger value sits in
the left half-plane.  Combined with the kernel's reflection structure this
gives the inequality machinery behind the partial symmetry trichotomy: the
kernel quadratic form of a two-material load never decreases under
polarization, with equality exactly at symmetric or one-side-dominant
fields.
"""

from __future__ import annotations

import numpy as np

from .certify import make_report
from .green import quadratic_form
from .optimize import (DensityField, PlateSystem, bang_bang_from_values,
                       random_admissible_density, strip_density, uniform_density)

POLARIZATION_SEED = 6121
POLARIZATION_FIELDS = 100
DUALITY_SEED = 997
DUALITY_TRIALS = 100


def polarize(v: np.ndarray) -> np.ndarray:
    """Larger of (v, mirrored v) on the left half, smaller on the right.

    The Gauss x-nodes ascend and are mirror symmetric, so the mirror image
    of the node values v is the rows reversed and the left half x < pi/2 is
    the first n_quad_x // 2 rows.  Pure selection between existing floats:
    idempotent bit for bit, and the pair sum v + v(mirror) is preserved
    nodewise exactly.
    """
    vm = v[::-1, :]
    half = v.shape[0] // 2
    out = np.minimum(v, vm)
    out[:half] = np.maximum(v[:half], vm[:half])
    return out


def theta1_quotient(p: DensityField, v: np.ndarray) -> float:
    """Kernel form quotient int G(p v) p v / int p v^2 of trial node values v.

    Taken on p's own system; maximized exactly by the first eigenfunction,
    where it equals the inverse of the first eigenvalue.
    """
    w = p.system.grid.weights.ravel()
    denom = float(np.sum(w * p.values.ravel() * v.ravel() ** 2))
    if denom <= 0.0:
        raise ValueError("trial field has vanishing weighted norm")
    return quadratic_form(p.system, p.values * v) / denom


def polarization_energy_gap(u: np.ndarray, system: PlateSystem) -> float:
    """Kernel form of the polarized two-material load minus the original.

    Each load is the field weighted by its own two-material density.
    Expected nonnegative up to solver noise; zero exactly when the field is
    symmetric or entirely one-side dominant.
    """
    p_u, _ = bang_bang_from_values(u, system)
    u_h = polarize(u)
    p_h, _ = bang_bang_from_values(u_h, system)
    return quadratic_form(system, p_h.values * u_h) - quadratic_form(system, p_u.values * u)


def certify_polarization(system: PlateSystem) -> list:
    """Polarization identity suite on random positive fields; a polarized
    density whose threshold moved fails the product identity."""
    grid, cfg = system.grid, system.cfg
    rng = np.random.default_rng(POLARIZATION_SEED)
    res = f"n_quad={grid.shape[0]}x{grid.shape[1]}, fields={POLARIZATION_FIELDS}"
    sample = _positive_field_sampler(*grid.meshgrid(), cfg.ell)
    w = grid.weights.ravel()

    idem_err = 0.0
    pairsum_err = 0.0
    product_err = 0.0
    mass_err = 0.0
    energy_err = 0.0
    gap_min = np.inf
    for _ in range(POLARIZATION_FIELDS):
        u = sample(rng)
        u_h = polarize(u)
        again = polarize(u_h)
        idem_err = max(idem_err, float(np.abs(again - u_h).max()))
        pair = u + u[::-1, :]
        pair_h = u_h + u_h[::-1, :]
        pairsum_err = max(pairsum_err, float(np.abs(pair - pair_h).max()))

        p_u, _ = bang_bang_from_values(u, system)
        p_h, _ = bang_bang_from_values(u_h, system)
        load = p_u.values * u
        lhs = polarize(load)
        rhs = p_h.values * u_h
        scale = float(np.abs(rhs).max())
        product_err = max(product_err, float(np.abs(lhs - rhs).max()) / scale)
        mass_err = max(mass_err, abs(p_h.mass - cfg.target_mass) / cfg.target_mass)
        e_u = float(np.sum(w * p_u.values.ravel() * u.ravel() ** 2))
        e_h = float(np.sum(w * p_h.values.ravel() * u_h.ravel() ** 2))
        energy_err = max(energy_err, abs(e_h - e_u) / e_u)
        gap_min = min(gap_min, quadratic_form(system, rhs) - quadratic_form(system, load))

    n = POLARIZATION_FIELDS
    return [
        make_report("polarize-idempotent", n, idem_err, res),
        make_report("polarize-pair-sum", n, pairsum_err, res),
        make_report("polarized-product-identity", n, product_err, res),
        make_report("polarized-mass", n, mass_err, res),
        make_report("polarized-energy-identity", n, energy_err, res),
        make_report("polarization-form-inequality", n, gap_min, res),
    ]


def certify_duality(system: PlateSystem) -> list:
    """Quotient of each density's eigenfunction equals 1/lambda_1; random
    trial fields never exceed it."""
    rng = np.random.default_rng(DUALITY_SEED)
    densities = [
        uniform_density(system),
        strip_density(system, "left"),
        strip_density(system, "right"),
    ] + [random_admissible_density(system, rng) for _ in range(7)]
    res = f"densities={len(densities)}, trials={DUALITY_TRIALS}"
    worst_eig = 0.0
    worst_excess = -np.inf
    per_density = DUALITY_TRIALS // len(densities)
    for p in densities:
        pair = system.solve_density(p)
        q = theta1_quotient(p, system.grid_values(pair.u))
        worst_eig = max(worst_eig, abs(q * pair.lambda1 - 1.0))
        for _ in range(per_density):
            v = rng.standard_normal(system.grid.shape)
            worst_excess = max(worst_excess,
                               theta1_quotient(p, v) - 1.0 / pair.lambda1)
    return [
        make_report("duality-inverse-eigenvalue", len(densities), worst_eig, res),
        make_report("duality-trial-bound", len(densities) * per_density, worst_excess, res),
    ]


def _positive_field_sampler(X, Y, ell):
    """A function rng -> random strictly positive field on the nodes X, Y.

    Each draw is a smooth sine mix with three random coefficients or
    uniform noise, shifted to a minimum of 0.05.  The sines and Y/ell do not
    depend on the draw, so they are computed once here, each by the same
    operations in the same order as when written inline in the sum, which
    gives the same bits.
    """
    base = np.sin(X) * (1.0 + 0.3 * np.sin(2.0 * Y / ell))
    sin2x, sin3x, y_ell = np.sin(2 * X), np.sin(3 * X), Y / ell

    def sample(rng):
        kind = rng.integers(0, 2)
        if kind == 0:
            a = rng.uniform(-0.5, 0.5, size=3)
            f = base + a[0] * sin2x + a[1] * sin3x + a[2] * sin2x * y_ell
            return f - f.min() + 0.05
        f = rng.uniform(0.0, 1.0, size=X.shape)
        return f + 0.05

    return sample
