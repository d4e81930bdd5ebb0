"""Smallest eigenpair of the generalized problem K c = lambda M_p c.

Cold start: with the blockwise Cholesky factor K = R^T R the problem
reduces to the standard symmetric one C y = mu y, C = R^{-T} M_p R^{-1},
mu = 1/lambda, c = R^{-1} y (Golub & Van Loan, Matrix Computations, 4th
ed., sec. 8.7).  The smallest lambda is the largest mu, which a dense
symmetric eigensolver resolves to full relative accuracy; no dense K is
ever formed.

Warm start: given the Ritz block of a nearby problem (the previous sweep
of the rearrangement loop), block inverse iteration with the exact
blockwise solve and a Rayleigh-Ritz step on the block, which is LOBPCG
with an exact preconditioner and no search directions (Knyazev, SIAM J.
Sci. Comput. 23, 2001), converges in a few O(n^2) steps instead of one
O(n^3) dense eigensolve.  The same iteration polishes the dense pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import StiffnessFactor
from .basis import SpectralField, evaluate_on_grid
from .grid import QuadratureGrid

# Relative gap below which the first pair counts as nearly degenerate.
DEGENERATE_GAP = 1e-10
# Ritz vectors carried from one solve to the next: the first pair, the
# second (for the gap), and a guard vector that makes the second converge
# at the rate lambda_2/lambda_4 instead of lambda_2/lambda_3.
RITZ_BLOCK = 3
# Inverse-iteration steps allowed to polish the dense pair, and to a warm
# start before it falls back to the dense reduction.
POLISH_MAX_STEPS = 8
WARM_MAX_STEPS = 25

DENSE, WARM, WARM_FALLBACK = "dense", "warm", "warm→dense"


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
    relative distance to the next discrete eigenvalue.  `path` says how
    the pair was found (`dense`, `warm`, or `warm→dense` when a warm start
    fell back to the dense reduction), `iterations` counts the
    inverse-iteration steps of the call (a failed warm attempt's
    included), and `ritz` is the M_p-orthonormal block of the lowest
    RITZ_BLOCK Ritz vectors that warm-starts the solve of a nearby density.
    """

    lambda1: float
    u: SpectralField
    residual: float
    gap: float
    path: str = DENSE
    iterations: int = 0
    ritz: np.ndarray = field(default=None, repr=False, compare=False)


def rayleigh_quotient(u: SpectralField, factor: StiffnessFactor, M_p: np.ndarray) -> float:
    """Energy over weighted mass of a trial field; minimal at the first pair."""
    c = u.coefficients
    denom = c @ M_p @ c
    if denom <= 0.0:
        raise ValueError("trial field has vanishing weighted norm")
    return float(c @ factor.matvec(c)) / float(denom)


def _inverse_iteration(X, factor, M_p, tol, max_steps):
    """Block inverse iteration with Rayleigh-Ritz, from the columns of X.

    Every step maps the block through K^{-1} M_p (one blockwise solve and
    one M_p product) and replaces it by the M_p-orthonormal Ritz vectors of
    its span, in ascending order of Ritz value; step 0 only projects the
    given block.  Returns (Ritz values, Ritz block, relative residual of
    each Ritz pair, steps taken) as soon as `_converged` holds, or after
    max_steps steps.
    """
    X = np.asarray(X, dtype=float)
    MX = M_p @ X
    for step in range(max_steps + 1):
        if step:
            X = factor.solve(MX)
            MX = M_p @ X
        KX = factor.matvec(X)
        A, B = X.T @ KX, X.T @ MX
        try:
            theta, Q = scipy.linalg.eigh(0.5 * (A + A.T), 0.5 * (B + B.T))
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise SolverError(f"inverse iteration collapsed: {exc}") from exc
        X, KX, MX = X @ Q, KX @ Q, MX @ Q
        lam = np.sum(X * KX, axis=0) / np.sum(X * MX, axis=0)
        res = np.linalg.norm(KX - lam * MX, axis=0) / np.linalg.norm(KX, axis=0)
        if _converged(res, tol):
            break
    return theta, X, res, step


def _converged(res, tol) -> bool:
    """First Ritz pair within tol, the second within sqrt(tol).

    A Ritz value's error is quadratic in its residual, so sqrt(tol) puts
    theta_2, and with it the reported gap, within about tol of an
    eigenvalue.
    """
    return bool(res[0] <= tol and res[1:2].max(initial=0.0) <= np.sqrt(tol))


def _oriented(c, M_p, basis, grid):
    """Field of c at unit weighted norm and its node values (None without a grid).

    The sign makes the quadrature mean of u positive, or without a grid
    the leading coefficient.
    """
    c = c / np.sqrt(c @ M_p @ c)
    vals = None if grid is None else evaluate_on_grid(SpectralField(basis, c), grid).values
    mean = c[0] if vals is None else grid.integrate(vals)
    if mean < 0.0:
        c = -c
        vals = None if vals is None else -vals
    return SpectralField(basis, c), vals


def _warm(start, factor, M_p, cfg, basis, grid):
    """Warm-started pair (None when a safeguard sends it to the dense path)
    and the inverse-iteration steps it took.

    The safeguards: no convergence within WARM_MAX_STEPS, a nearly
    degenerate gap, and an eigenfunction that is not positive at every
    node, since the first eigenfunction is and any other converged pair is
    M_p-orthogonal to it.
    """
    try:
        theta, X, res, steps = _inverse_iteration(
            start, factor, M_p, cfg.eig_tol, WARM_MAX_STEPS)
    except SolverError:
        return None, 0
    gap = float(theta[1] / theta[0] - 1.0) if theta.size > 1 else np.inf
    if not _converged(res, cfg.eig_tol) or not gap >= DEGENERATE_GAP:
        return None, steps
    u, vals = _oriented(X[:, 0], M_p, basis, grid)
    if not vals.min() > 0.0:
        return None, steps
    return Eigenpair(lambda1=rayleigh_quotient(u, factor, M_p), u=u, residual=float(res[0]),
                     gap=gap, path=WARM, iterations=steps, ritz=X), steps


def solve_first(factor: StiffnessFactor, M_p: np.ndarray, cfg, *, basis,
                grid: QuadratureGrid = None, start: np.ndarray = None) -> Eigenpair:
    """Smallest generalized eigenpair, polished to cfg.eig_tol relative residual.

    `factor` is the blockwise factorization of the energy matrix K.  Cold
    (no `start`): the largest eigenvalues mu of R^{-T} M_p R^{-1} give
    lambda1 = 1/mu_max and the gap mu_max/mu_2 - 1, and inverse iteration
    polishes their vectors.  Warm: `start` is the Ritz block of a nearby
    problem (`Eigenpair.ritz`), refined by inverse iteration alone, with
    gap theta_2/theta_1 - 1 of the final Ritz values; any safeguard of
    `_warm` falls back to the cold path.  The warm path needs the grid.
    The reported lambda1 is the Rayleigh quotient of the returned vector.
    """
    path, warm_steps = DENSE, 0
    if start is not None:
        if grid is None:
            raise ValueError("a warm start needs the grid to check the eigenfunction's sign")
        pair, warm_steps = _warm(start, factor, M_p, cfg, basis, grid)
        if pair is not None:
            return pair
        path = WARM_FALLBACK
    n = M_p.shape[0]
    try:
        mu, vecs = scipy.linalg.eigh(factor.congruence(M_p), overwrite_a=True,
                                     subset_by_index=[max(n - RITZ_BLOCK, 0), n - 1])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense eigensolve failed: {exc}") from exc
    if mu[-1] <= 0.0:
        raise SolverError("weighted mass form is not positive on the basis")
    gap = float(mu[-1] / mu[-2] - 1.0) if n > 1 else np.inf
    if gap < DEGENERATE_GAP:
        warnings.warn(
            f"smallest eigenvalues nearly degenerate (relative gap {gap:.2e})",
            NearDegenerateWarning,
        )
    _, X, res, steps = _inverse_iteration(
        factor.solve_upper(vecs[:, ::-1]), factor, M_p, cfg.eig_tol, POLISH_MAX_STEPS)
    residual = float(res[0])
    if residual > cfg.eig_tol:
        raise SolverError(
            f"eigenpair residual {residual:.3e} above eig_tol {cfg.eig_tol:.1e} "
            f"after refinement"
        )
    u, _ = _oriented(X[:, 0], M_p, basis, grid)
    return Eigenpair(lambda1=rayleigh_quotient(u, factor, M_p), u=u, residual=residual,
                     gap=gap, path=path, iterations=warm_steps + steps, ritz=X)
