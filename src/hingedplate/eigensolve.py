"""Smallest eigenpair of the generalized problem K c = lambda M_p c.

Block inverse iteration with the exact blockwise solve and a Rayleigh-Ritz
step on the block, which is LOBPCG with an exact preconditioner and no
search directions (Knyazev, SIAM J. Sci. Comput. 23, 2001), converges in a
few O(n^2) steps; no dense K and no n x n eigensolve is ever formed.

The start block is the Rayleigh-Ritz projection of the pencil onto each
sine mode's profiles: the lowest eigenvectors of the block-diagonal pencil
(K_m, D_m), D_m the m-th diagonal J x J block of M_p.  K is block diagonal
over the sine mode, and for p = 1 so is M_p up to rounding, so the start
is the uniform plate's modes; a two-material density moves the sought
pair only a few steps away from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import StiffnessFactor
from .basis import SpectralField
from .grid import QuadratureGrid

# Relative gap below which the first pair counts as nearly degenerate.
DEGENERATE_GAP = 1e-10
# Columns of the iterated block: the first pair, the second (for the gap),
# and a guard vector that makes the second converge at the rate
# lambda_2/lambda_4 instead of lambda_2/lambda_3.
RITZ_BLOCK = 3
# Inverse-iteration steps allowed before the solve counts as failed.
MAX_STEPS = 25


class SolverError(RuntimeError):
    """Eigensolve failed or could not reach the demanded residual."""


class NearDegenerateWarning(UserWarning):
    """Smallest discrete eigenvalues closer than the reporting threshold."""


@dataclass(frozen=True)
class Eigenpair:
    """First eigenvalue with its eigenfunction, normalized so ||sqrt(p) u||_2 = 1.

    `lambda1` is the Rayleigh quotient of the returned vector and the sign
    is fixed so the quadrature mean of u is positive; `residual` is
    ||K c - lambda M_p c|| / ||K c|| of the returned pair, `gap` the
    relative distance to the next discrete eigenvalue, and `iterations`
    the inverse-iteration steps the solve took.
    """

    lambda1: float
    u: SpectralField
    residual: float
    gap: float
    iterations: int


def rayleigh_quotient(u: SpectralField, factor: StiffnessFactor, M_p: np.ndarray) -> float:
    """Energy over weighted mass of a trial field; minimal at the first pair."""
    c = u.coefficients
    denom = c @ M_p @ c
    if denom <= 0.0:
        raise ValueError("trial field has vanishing weighted norm")
    return float(c @ factor.matvec(c)) / float(denom)


def _rayleigh_ritz(A, B):
    """Eigenpairs of the symmetric pencil (A, B), batched over leading axes.

    Ascending eigenvalues and B-orthonormal eigenvectors, from the Cholesky
    factor B = L L^T and the standard problem L^-1 A L^-T (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 8.7).
    """
    def sym(S):
        return 0.5 * (S + S.swapaxes(-1, -2))

    try:
        Li = np.linalg.inv(np.linalg.cholesky(sym(B)))
        LiT = Li.swapaxes(-1, -2)
        theta, Y = np.linalg.eigh(sym(Li @ A @ LiT))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Rayleigh-Ritz projection failed: {exc}") from exc
    return theta, LiT @ Y


def _block_diagonal_start(factor: StiffnessFactor, M_p: np.ndarray, k: int) -> np.ndarray:
    """The k lowest eigenvectors of the pencils (K_m, D_m), as (dimension, k).

    All sine modes go through one batched Rayleigh-Ritz call; the k lowest
    eigenvalues over all modes pick the columns, each embedded in its own
    mode's rows.
    """
    nm, J, _ = factor.blocks.shape
    modes = np.arange(nm)
    D = M_p.reshape(nm, J, nm, J)[modes, :, modes, :]
    theta, V = _rayleigh_ritz(factor.blocks, D)
    lowest = np.argsort(theta, axis=None, kind="stable")[:k]
    m, j = np.unravel_index(lowest, theta.shape)
    X = np.zeros((nm, J, k))
    X[m, :, np.arange(k)] = V[m, :, j]
    return X.reshape(nm * J, k)


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
        theta, Q = _rayleigh_ritz(X.T @ KX, X.T @ MX)
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


def _oriented(c, M_p, basis, grid) -> SpectralField:
    """Field of c at unit weighted norm, its sign making the quadrature mean
    of u positive, or without a grid the leading coefficient.

    The quadrature sum of u is (fx w_x)^T C (fy^T w_y) for the coefficient
    matrix C, so it is taken in coefficient space without a grid pass.
    """
    c = c / np.sqrt(c @ M_p @ c)
    if grid is None:
        mean = c[0]
    else:
        fx, fy = basis.axis_tables(grid)
        C = c.reshape(basis.n_modes_x, basis.n_basis_y)
        mean = (fx @ grid.weights_x) @ C @ (fy.T @ grid.weights_y)
    return SpectralField(basis, -c if mean < 0.0 else c)


def solve_first(factor: StiffnessFactor, M_p: np.ndarray, cfg, *, basis,
                grid: QuadratureGrid = None) -> Eigenpair:
    """Smallest generalized eigenpair, to cfg.eig_tol relative residual.

    `factor` is the blockwise factorization of the energy matrix K.  Block
    inverse iteration runs from `_block_diagonal_start` until `_converged`
    holds; not converging within MAX_STEPS steps raises SolverError.  The
    gap is theta_2/theta_1 - 1 of the final Ritz values.  The reported
    lambda1 is the Rayleigh quotient of the returned vector.
    """
    k = min(RITZ_BLOCK, M_p.shape[0])
    theta, X, res, steps = _inverse_iteration(
        _block_diagonal_start(factor, M_p, k), factor, M_p, cfg.eig_tol, MAX_STEPS)
    if not _converged(res, cfg.eig_tol):
        raise SolverError(
            f"eigenpair residual {res[0]:.3e} (eig_tol {cfg.eig_tol:.1e}) not "
            f"converged after {steps} inverse-iteration steps"
        )
    gap = float(theta[1] / theta[0] - 1.0) if k > 1 else np.inf
    if gap < DEGENERATE_GAP:
        warnings.warn(
            f"smallest eigenvalues nearly degenerate (relative gap {gap:.2e})",
            NearDegenerateWarning,
        )
    u = _oriented(X[:, 0], M_p, basis, grid)
    return Eigenpair(lambda1=rayleigh_quotient(u, factor, M_p), u=u,
                     residual=float(res[0]), gap=gap, iterations=steps)
