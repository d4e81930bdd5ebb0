"""Two-point rearrangement across the fixed midline x = pi/2.

Polarizing a node field swaps each mirror pair so the larger value sits in
the left half-plane.  Combined with the kernel's reflection structure this
gives the inequality machinery behind the partial symmetry trichotomy: the
kernel quadratic form of a two-material load never decreases under
polarization, with equality exactly at symmetric or one-side-dominant
fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import evaluate_on_grid
from .certify import make_report
from .config import AdmissibleWeightRule
from .green import quadratic_form
from .grid import GridField, QuadratureGrid
from .optimize import (DensityField, PlateSystem, bang_bang_from_values,
                       random_admissible_density, strip_density, uniform_density)


@dataclass(frozen=True)
class HalfPlaneReflection:
    """Mirror pairing of grid nodes across x = pi/2.

    Gauss nodes on (0, pi) are symmetric, so node i pairs with node
    n-1-i exactly; an odd node count would leave a self-paired node on the
    midline and is rejected.
    """

    grid: QuadratureGrid

    def __post_init__(self):
        nx = self.grid.shape[0]
        if nx % 2 != 0:
            raise ValueError(
                f"n_quad_x={nx} is odd; the midline node cannot be mirror-paired"
            )
        gap = np.abs(self.grid.nodes_x + self.grid.nodes_x[::-1] - np.pi)
        if gap.max() > 1e-12:
            raise ValueError("x nodes are not mirror symmetric")

    def left_mask(self) -> np.ndarray:
        return self.grid.nodes_x < np.pi / 2

    def reflect(self, values: np.ndarray) -> np.ndarray:
        """Samples of v(pi - x, y) as a pure node relabeling."""
        return values[::-1, :]


def polarize(v: GridField) -> GridField:
    """Larger of (v, mirrored v) on the left half, smaller on the right.

    Pure selection between existing floats: idempotent bit for bit, and the
    pair sum v + v(mirror) is preserved nodewise exactly.
    """
    refl = HalfPlaneReflection(v.grid)
    vm = refl.reflect(v.values)
    left = refl.left_mask()[:, None]
    out = np.where(left, np.maximum(v.values, vm), np.minimum(v.values, vm))
    return GridField(v.grid, out)


def polarized_density(u: GridField, t: float, rule: AdmissibleWeightRule) -> DensityField:
    """Two-material density of the polarized field at the same threshold.

    Polarization permutes node values within equal-weight mirror pairs, so
    the quantile construction applied to the polarized field reproduces the
    threshold of the original field exactly; the input t is validated
    against it instead of being re-imposed, which keeps the mass exact.
    """
    return _density_of_polarized(polarize(u), t, rule)


def _density_of_polarized(u_h: GridField, t: float,
                          rule: AdmissibleWeightRule) -> DensityField:
    density, t_h = bang_bang_from_values(u_h, rule)
    if not np.isclose(t_h, t, rtol=1e-12, atol=0.0):
        raise ValueError(
            f"threshold {t!r} does not match the field's quantile threshold {t_h!r}; "
            f"t must come from the rearrangement of the unpolarized field"
        )
    return density


def theta1_quotient(p: DensityField, v: GridField, system: PlateSystem) -> float:
    """Kernel form quotient int G(p v) p v / int p v^2 of a trial field.

    Maximized exactly by the first eigenfunction, where it equals the
    inverse of the first eigenvalue.
    """
    w = p.grid.flat_weights()
    pv = p.values.ravel() * v.flat()
    denom = float(np.sum(w * p.values.ravel() * v.flat() ** 2))
    if denom <= 0.0:
        raise ValueError("trial field has vanishing weighted norm")
    numer = quadratic_form(system, GridField(p.grid, pv.reshape(p.grid.shape)))
    return numer / denom


def polarization_energy_gap(p_u: DensityField, u: GridField,
                            system: PlateSystem) -> float:
    """Kernel form of the polarized two-material load minus the original.

    Expected nonnegative up to solver noise; zero exactly when the field is
    symmetric or entirely one-side dominant.
    """
    t = _threshold_of(p_u, u)
    u_h = polarize(u)
    return _form_gap(system, p_u, u, _density_of_polarized(u_h, t, p_u.rule), u_h)


def _form_gap(system: PlateSystem, p_u: DensityField, u: GridField,
              p_h: DensityField, u_h: GridField) -> float:
    """Kernel form of the load p_h u_h less that of p_u u."""
    f = GridField(u.grid, p_u.values * u.values)
    f_h = GridField(u.grid, p_h.values * u_h.values)
    return quadratic_form(system, f_h) - quadratic_form(system, f)


def _threshold_of(p_u: DensityField, u: GridField) -> float:
    """Recover the rearrangement threshold that built p_u from u."""
    density, t = bang_bang_from_values(u, p_u.rule)
    if not np.array_equal(density.values, p_u.values):
        raise ValueError("density was not produced by rearranging this field")
    return t


def certify_polarization(system: PlateSystem, n_fields: int = 100,
                         seed: int = 6121) -> list:
    """Polarization identity suite on random positive fields."""
    grid, rule = system.grid, system.rule
    rng = np.random.default_rng(seed)
    res = f"n_quad={grid.shape[0]}x{grid.shape[1]}, fields={n_fields}"
    X, Y = grid.meshgrid()
    w = grid.flat_weights()

    idem_err = 0.0
    pairsum_err = 0.0
    product_err = 0.0
    mass_err = 0.0
    energy_err = 0.0
    gap_min = np.inf
    for _ in range(n_fields):
        u = GridField(grid, _random_positive_field(rng, X, Y, system.cfg.ell))
        u_h = polarize(u)
        again = polarize(u_h)
        idem_err = max(idem_err, float(np.abs(again.values - u_h.values).max()))
        pair = u.values + u.values[::-1, :]
        pair_h = u_h.values + u_h.values[::-1, :]
        pairsum_err = max(pairsum_err, float(np.abs(pair - pair_h).max()))

        p_u, t = bang_bang_from_values(u, rule)
        p_h = _density_of_polarized(u_h, t, rule)
        lhs = polarize(GridField(grid, p_u.values * u.values)).values
        rhs = p_h.values * u_h.values
        scale = float(np.abs(rhs).max())
        product_err = max(product_err, float(np.abs(lhs - rhs).max()) / scale)
        mass_err = max(mass_err, abs(p_h.mass - rule.target_mass) / rule.target_mass)
        e_u = float(np.sum(w * p_u.values.ravel() * u.flat() ** 2))
        e_h = float(np.sum(w * p_h.values.ravel() * u_h.flat() ** 2))
        energy_err = max(energy_err, abs(e_h - e_u) / e_u)
        gap_min = min(gap_min, _form_gap(system, p_u, u, p_h, u_h))

    return [
        make_report("polarize-idempotent", n_fields, -idem_err, res, idem_err == 0.0),
        make_report("polarize-pair-sum", n_fields, -pairsum_err, res, pairsum_err == 0.0),
        make_report("polarized-product-identity", n_fields, 1e-12 - product_err, res,
                    product_err <= 1e-12),
        make_report("polarized-mass", n_fields, 1e-10 - mass_err, res, mass_err <= 1e-10),
        make_report("polarized-energy-identity", n_fields, 1e-12 - energy_err, res,
                    energy_err <= 1e-12),
        make_report("polarization-form-inequality", n_fields, gap_min, res,
                    gap_min >= -1e-10),
    ]


def certify_duality(system: PlateSystem, densities=None, *,
                    n_trials: int = 100, seed: int = 997) -> list:
    """Quotient of each density's eigenfunction equals 1/lambda_1; random
    trial fields never exceed it."""
    rng = np.random.default_rng(seed)
    if densities is None:
        densities = [
            uniform_density(system.grid, system.rule),
            strip_density(system.grid, system.rule, "left"),
            strip_density(system.grid, system.rule, "right"),
        ] + [random_admissible_density(system.grid, system.rule, rng) for _ in range(7)]
    res = f"densities={len(densities)}, trials={n_trials}"
    worst_eig = 0.0
    worst_excess = -np.inf
    per_density = max(1, n_trials // len(densities))
    for p in densities:
        pair = system.solve_density(p)
        u = evaluate_on_grid(pair.u, system.grid)
        q = theta1_quotient(p, u, system)
        worst_eig = max(worst_eig, abs(q * pair.lambda1 - 1.0))
        for _ in range(per_density):
            v = GridField(system.grid, rng.standard_normal(system.grid.shape))
            worst_excess = max(worst_excess,
                               theta1_quotient(p, v, system) - 1.0 / pair.lambda1)
    return [
        make_report("duality-inverse-eigenvalue", len(densities),
                    1e-8 - worst_eig, res, worst_eig <= 1e-8),
        make_report("duality-trial-bound", len(densities) * per_density,
                    1e-9 - worst_excess, res, worst_excess <= 1e-9),
    ]


def _random_positive_field(rng, X, Y, ell):
    kind = rng.integers(0, 2)
    if kind == 0:
        a = rng.uniform(-0.5, 0.5, size=3)
        f = np.sin(X) * (1.0 + 0.3 * np.sin(2.0 * Y / ell)) \
            + a[0] * np.sin(2 * X) + a[1] * np.sin(3 * X) \
            + a[2] * np.sin(2 * X) * (Y / ell)
        return f - f.min() + 0.05
    f = rng.uniform(0.0, 1.0, size=X.shape)
    return f + 0.05
