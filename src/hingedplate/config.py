"""Domain geometry, material bounds and run parameters.

The plate occupies the fixed rectangle (0, pi) x (-ell, ell): hinged on the
two short edges x = 0, pi and free on the long edges y = +-ell.  Everything
downstream reads its parameters from a validated :class:`PlateConfig`, so
invalid combinations are rejected here once and never rechecked.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, asdict, fields


class InputError(ValueError):
    """Invalid input from outside the program; the CLI exits 2 on it."""


@dataclass(frozen=True)
class PlateConfig:
    """Physical and discretization parameters of one plate problem.

    Admissible densities take alpha <= p <= beta at every node and have
    quadrature mass target_mass, the area 2*pi*ell, so p = 1 is admissible;
    each rearrangement gives the light material the share sublevel_fraction
    = (beta-1)/(beta-alpha) of that area, in (0, 1) for a valid config.
    Both are derived properties, not config keys.

    Parameters
    ----------
    sigma : float
        Poisson ratio, in [0, 1).
    ell : float
        Half-width of the plate; the domain is (0, pi) x (-ell, ell).
    alpha, beta : float
        Density bounds of the two materials, 0 < alpha < 1 < beta.
    n_modes_x : int
        Number of sine modes sin(m x), m = 1..n_modes_x.
    n_basis_y : int
        Number of polynomial cross-profiles in y (degrees 0..n_basis_y-1).
    n_quad_x, n_quad_y : int
        Gauss-Legendre node counts of the tensor quadrature grid;
        n_quad_x must be even and at least n_modes_x, and n_quad_y at least
        n_basis_y.
    """

    sigma: float = 0.2
    ell: float = math.pi / 5
    alpha: float = 0.5
    beta: float = 3.0
    n_modes_x: int = 20
    n_basis_y: int = 12
    n_quad_x: int = 96
    n_quad_y: int = 48

    def __post_init__(self):
        # annotations are strings under `from __future__ import annotations`
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                if isinstance(v, bool) or not isinstance(v, int):
                    raise InputError(f"{f.name} must be an integer, got {v!r}")
                if v < 1:
                    raise InputError(f"{f.name} must be a positive integer, got {v!r}")
            else:
                if isinstance(v, bool) or not isinstance(v, numbers.Real):
                    raise InputError(f"{f.name} must be a number, got {v!r}")
                # an int bound would make int arrays of np.full(n, beta)
                try:
                    v = float(v)
                except OverflowError:  # an int beyond the float range
                    v = math.inf
                if not math.isfinite(v):
                    raise InputError(f"{f.name} must be finite, got {v!r}")
                object.__setattr__(self, f.name, v)
        if not 0.0 <= self.sigma < 1.0:
            raise InputError(f"sigma must lie in [0, 1), got {self.sigma}")
        if not self.ell > 0.0:
            raise InputError(f"ell must be positive, got {self.ell}")
        if not math.isfinite(self.ell * self.ell):
            # the y-derivative tables divide by ell**2: OverflowError above ~1.34e154
            raise InputError(f"ell={self.ell} is too large: ell**2 overflows")
        if not 0.0 < self.alpha < 1.0 < self.beta:
            raise InputError(
                f"density bounds must satisfy 0 < alpha < 1 < beta, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        if self.n_quad_x < self.n_modes_x:
            # sin(m x) = sin(x) U_{m-1}(cos x): at n distinct interior nodes
            # the (n_modes_x, n_quad_x) sine table has full row rank iff
            # n >= n_modes_x, and the weighted mass form needs it.
            raise InputError(
                f"n_quad_x={self.n_quad_x} is below n_modes_x={self.n_modes_x}; "
                f"the x-quadrature needs at least one node per sine mode"
            )
        if self.n_quad_x % 2:
            # Gauss nodes on (0, pi) pair off across x = pi/2 only for an
            # even count; an odd one puts a node on the midline that the
            # mirror and polarization analysis cannot pair.
            raise InputError(
                f"n_quad_x={self.n_quad_x} is odd; the mirror pairing of "
                f"x-nodes across x = pi/2 needs an even count"
            )
        if self.n_quad_y < self.n_basis_y:
            # The weighted mass form is definite only if the (n_quad_y,
            # n_basis_y) profile table has full column rank; n_quad_y >=
            # n_basis_y also makes Gauss exact to degree 2*n_basis_y - 2,
            # the top degree of every y-integrand.
            raise InputError(
                f"n_quad_y={self.n_quad_y} is below n_basis_y={self.n_basis_y}; "
                f"the y-quadrature needs at least one node per cross profile"
            )

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def target_mass(self) -> float:
        return 2.0 * math.pi * self.ell

    @property
    def sublevel_fraction(self) -> float:
        return (self.beta - 1.0) / (self.beta - self.alpha)


CONFIG_KEYS = tuple(f.name for f in fields(PlateConfig))


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a repeated key raises instead of keeping its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"repeats the key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> PlateConfig:
    """Read a JSON config file; keys absent from the file keep their defaults.

    Accepted keys are exactly the fields of :class:`PlateConfig`, each given
    at most once; anything else is rejected so typos cannot silently fall
    back to a default or be overridden by a later entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        except InputError as exc:
            raise InputError(f"config file {path} {exc}") from None
        except (ValueError, RecursionError) as exc:  # malformed, too deep or not UTF-8
            raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise InputError(f"unknown config keys {unknown}; accepted keys: {list(CONFIG_KEYS)}")
    return PlateConfig(**raw)
