"""Smallest eigenpair of the generalized problem K c = lambda M_p c.

With the blockwise Cholesky factor K = R^T R the problem reduces to the
standard symmetric one C y = mu y, C = R^{-T} M_p R^{-1}, mu = 1/lambda,
c = R^{-1} y (Golub & Van Loan, Matrix Computations, 4th ed., sec. 8.7).
The smallest lambda is the largest mu, which a dense symmetric eigensolver
resolves to full relative accuracy; no dense K is ever formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assembly import StiffnessFactor
from .basis import SpectralField, evaluate_on_grid
from .grid import QuadratureGrid


class SolverError(RuntimeError):
    """Eigensolve failed or could not reach the demanded residual."""


class NearDegenerateWarning(UserWarning):
    """Smallest discrete eigenvalues closer than the reporting threshold."""


@dataclass(frozen=True)
class Eigenpair:
    """First eigenvalue with its eigenfunction, normalized so ||sqrt(p) u||_2 = 1.

    `lambda1` is the Rayleigh quotient of the returned vector and the sign
    is fixed so the quadrature mean of u is positive; `residual` is
    ||K c - lambda M_p c|| / ||K c|| of the returned pair and `gap` the
    relative distance to the next discrete eigenvalue.
    """

    lambda1: float
    u: SpectralField
    residual: float
    gap: float


def rayleigh_quotient(u: SpectralField, factor: StiffnessFactor, M_p: np.ndarray) -> float:
    """Energy over weighted mass of a trial field; minimal at the first pair."""
    c = u.coefficients
    denom = c @ M_p @ c
    if denom <= 0.0:
        raise ValueError("trial field has vanishing weighted norm")
    return float(c @ factor.matvec(c)) / float(denom)


def _polish(c, factor, M_p, tol, max_sweeps=8):
    """Inverse-iteration sweeps with blockwise energy solves.

    Stops as soon as the relative residual of (Rayleigh quotient, c) meets
    tol and returns the best (residual, c) seen.
    """
    best = (np.inf, c)
    for _ in range(max_sweeps):
        Kc = factor.matvec(c)
        Mc = M_p @ c
        lam = (c @ Kc) / (c @ Mc)
        r = np.linalg.norm(Kc - lam * Mc) / np.linalg.norm(Kc)
        if r < best[0]:
            best = (r, c)
        if r <= tol:
            break
        c = factor.solve(Mc)
        nrm = np.sqrt(c @ M_p @ c)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise SolverError("inverse iteration collapsed")
        c = c / nrm
    return best


def solve_first(factor: StiffnessFactor, M_p: np.ndarray, cfg, *, basis,
                grid: QuadratureGrid = None) -> Eigenpair:
    """Smallest generalized eigenpair, polished to cfg.eig_tol relative residual.

    `factor` is the blockwise factorization of the energy matrix K.  The
    two largest eigenvalues mu of R^{-T} M_p R^{-1} give lambda1 = 1/mu_max
    and the gap mu_max/mu_2 - 1; the reported lambda1 is the Rayleigh
    quotient of the returned vector.  With a grid the sign convention uses
    the quadrature mean of u, otherwise the leading coefficient.
    """
    n = M_p.shape[0]
    try:
        mu, vecs = scipy.linalg.eigh(factor.congruence(M_p), overwrite_a=True,
                                     subset_by_index=[max(n - 2, 0), n - 1])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense eigensolve failed: {exc}") from exc
    if mu[-1] <= 0.0:
        raise SolverError("weighted mass form is not positive on the basis")
    gap = float(mu[-1] / mu[0] - 1.0) if n > 1 else np.inf
    if gap < 1e-10:
        warnings.warn(
            f"smallest eigenvalues nearly degenerate (relative gap {gap:.2e})",
            NearDegenerateWarning,
        )
    c = factor.solve_upper(vecs[:, -1])

    residual, c = _polish(c, factor, M_p, cfg.eig_tol)
    if residual > cfg.eig_tol:
        raise SolverError(
            f"eigenpair residual {residual:.3e} above eig_tol {cfg.eig_tol:.1e} "
            f"after refinement"
        )

    c = c / np.sqrt(c @ M_p @ c)
    u = SpectralField(basis, c)
    if grid is not None:
        mean = evaluate_on_grid(u, grid).integral()
    else:
        mean = c[0]
    if mean < 0.0:
        u = SpectralField(basis, -c)
    lam = rayleigh_quotient(u, factor, M_p)
    return Eigenpair(lambda1=lam, u=u, residual=float(residual), gap=gap)
