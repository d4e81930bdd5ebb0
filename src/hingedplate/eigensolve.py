"""Smallest eigenpair of the generalized problem K c = lambda M_p c.

Block inverse iteration with the exact blockwise solve and a Rayleigh-Ritz
step on the block, which is LOBPCG with an exact preconditioner and no
search directions (Knyazev, SIAM J. Sci. Comput. 23, 2001), converges in a
few steps; no dense K or M_p and no n x n eigensolve is ever formed.
`solve_first` holds the whole iteration, its stop rule (`_converged`) and
its failure, a SolverError that names both Ritz residuals against their
thresholds, EIG_TOL and sqrt(EIG_TOL).

The start block is the Rayleigh-Ritz projection of the pencil onto each
sine mode's profiles: the lowest eigenvectors of the block-diagonal pencil
(K_m, D_m), D_m the m-th diagonal J x J block of M_p.  K is block diagonal
over the sine mode, and for p = 1 so is M_p up to rounding, so the start
is the uniform plate's modes; a two-material density moves the sought
pair only a few steps away from it.  Only modes that can hold one of the
lowest pencil eigenvalues are projected: p_min D_m(1) <= D_m(p) <= p_max
D_m(1) puts theta_{m,j}(p) in [theta_{m,j}(1)/p_max, theta_{m,j}(1)/p_min]
(Courant-Fischer), so the p = 1 spectrum and p_max/p_min certify the rest.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .assembly import StiffnessFactor, WeightedMass

# Relative gap below which the first pair counts as nearly degenerate.
DEGENERATE_GAP = 1e-10
# Columns of the iterated block: the first pair, the second (for the gap),
# and two guard vectors, which make the first pair converge at the rate
# lambda_1/lambda_5 and the second at lambda_2/lambda_5.
RITZ_BLOCK = 4
# Inverse-iteration steps allowed before the solve counts as failed.
MAX_STEPS = 25
# Relative residual demanded of the first pair: the blockwise solve reaches 1e-14 to 1e-12.
EIG_TOL = 1e-12


class SolverError(RuntimeError):
    """Eigensolve failed or could not reach the demanded residual."""


class NearDegenerateWarning(UserWarning):
    """Smallest discrete eigenvalues closer than the reporting threshold."""


@dataclass(frozen=True)
class Eigenpair:
    """First eigenvalue with its eigenfunction's coefficient vector u,
    normalized so ||sqrt(p) u||_2 = 1.

    `lambda1` is the Rayleigh quotient of the returned vector and the sign
    is fixed so the quadrature mean of u is positive; `residual` is
    ||K c - lambda M_p c|| / ||K c|| of the returned pair, `gap` the
    relative distance to the next discrete eigenvalue, and `iterations`
    the inverse-iteration steps the solve took.
    """

    lambda1: float
    u: np.ndarray
    residual: float
    gap: float
    iterations: int


def rayleigh_quotient(c: np.ndarray, factor: StiffnessFactor, mass: WeightedMass) -> float:
    """Energy over weighted mass of a trial coefficient vector; minimal at
    the first pair."""
    denom = c @ mass.apply(c)
    if denom <= 0.0:
        raise ValueError("trial field has vanishing weighted norm")
    return float(c @ factor.matvec(c)) / float(denom)


def _sym(S):
    """The symmetric part of S, batched over leading axes."""
    return 0.5 * (S + S.swapaxes(-1, -2))


def _rayleigh_ritz(A, B):
    """Eigenpairs of the symmetric pencil (A, B), batched over leading axes.

    Ascending eigenvalues and B-orthonormal eigenvectors, from the Cholesky
    factor B = L L^T and the standard problem L^-1 A L^-T (Golub & Van
    Loan, Matrix Computations, 4th ed., sec. 8.7).
    """
    try:
        Li = np.linalg.inv(np.linalg.cholesky(_sym(B)))
        LiT = Li.swapaxes(-1, -2)
        theta, Y = np.linalg.eigh(_sym(Li @ A @ LiT))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Rayleigh-Ritz projection failed: {exc}") from exc
    return theta, LiT @ Y


def _block_diagonal_start(system, mass: WeightedMass, k: int) -> np.ndarray:
    """The k lowest eigenvectors of the pencils (K_m, D_m), as (dimension, k).

    A mode whose lowest uniform value theta_{m,1}(1) exceeds contrast * T,
    T the k-th smallest value of `system.uniform_spectrum`, has every
    theta_{m,j}(p) above the k-th smallest theta(p), so it is left out; a
    factor 2 on the bound covers rounding.  The kept modes go through one
    batched Rayleigh-Ritz call, which solves each pencil on its own, so
    the start equals the all-mode one bit for bit; the k lowest
    eigenvalues pick the columns, each embedded in its own mode's rows.
    """
    blocks, uniform = system.factor.blocks, system.uniform_spectrum
    nm, J, _ = blocks.shape
    bound = 2.0 * mass.contrast * np.sort(uniform, axis=None)[k - 1]
    modes = np.flatnonzero(uniform[:, 0] <= bound)
    theta, V = _rayleigh_ritz(blocks[modes], mass.diagonal_blocks()[modes])
    lowest = np.argsort(theta, axis=None, kind="stable")[:k]
    i, j = np.unravel_index(lowest, theta.shape)
    X = np.zeros((nm, J, k))
    X[modes[i], :, np.arange(k)] = V[i, :, j]
    return X.reshape(nm * J, k)


def _converged(res) -> bool:
    """First Ritz pair within EIG_TOL, the second within sqrt(EIG_TOL).

    A Ritz value's error is quadratic in its residual, so sqrt(EIG_TOL)
    puts theta_2, and with it the reported gap, within about EIG_TOL of an
    eigenvalue.
    """
    return bool(res[0] <= EIG_TOL and res[1:2].max(initial=0.0) <= np.sqrt(EIG_TOL))


def _oriented(c, system) -> np.ndarray:
    """c or -c, whichever makes the quadrature mean of its field positive.

    The quadrature sum of u is (S w_x)^T C (L^T w_y) for the coefficient
    matrix C, so it is taken in coefficient space without a grid pass.
    """
    S, L, grid = system.S, system.L, system.grid
    mean = (S @ grid.weights_x) @ c.reshape(len(S), -1) @ (L.T @ grid.weights_y)
    return -c if mean < 0.0 else c


def solve_first(system, mass: WeightedMass) -> Eigenpair:
    """Smallest eigenpair of K c = lambda M_p c, to EIG_TOL relative residual.

    `system` is the configuration's `PlateSystem` (its `factor` is K).  Block
    inverse iteration runs from `_block_diagonal_start`: every step maps
    the block through K^{-1} M_p (one blockwise solve and one `mass.apply`)
    and replaces it by the M_p-orthonormal Ritz vectors of its span, in
    ascending order of Ritz value; step 0 only projects the start block.
    It stops at the first step where `_converged` holds; not converging
    within MAX_STEPS steps raises SolverError naming the first two Ritz
    residuals against their thresholds.  The gap is theta_2/theta_1 - 1 of
    the final Ritz values; the reported lambda1 is the Rayleigh quotient of
    the returned vector.
    """
    factor = system.factor
    k = min(RITZ_BLOCK, system.dimension)
    X = _block_diagonal_start(system, mass, k)
    MX = mass.apply(X)
    for step in range(MAX_STEPS + 1):
        if step:
            X = factor.solve(MX)
            MX = mass.apply(X)
        KX = factor.matvec(X)
        theta, Q = _rayleigh_ritz(X.T @ KX, X.T @ MX)
        X, KX, MX = X @ Q, KX @ Q, MX @ Q
        lam = np.sum(X * KX, axis=0) / np.sum(X * MX, axis=0)
        res = np.linalg.norm(KX - lam * MX, axis=0) / np.linalg.norm(KX, axis=0)
        if _converged(res):
            break
    else:
        second = f" and {res[1]:.3e} (sqrt(EIG_TOL) {np.sqrt(EIG_TOL):.1e})" if k > 1 else ""
        raise SolverError(f"eigenpair not converged after {MAX_STEPS} inverse-iteration "
                          f"steps: Ritz residuals {res[0]:.3e} (EIG_TOL {EIG_TOL:.1e}){second}")
    gap = float(theta[1] / theta[0] - 1.0) if k > 1 else np.inf
    if gap < DEGENERATE_GAP:
        warnings.warn(
            f"smallest eigenvalues nearly degenerate (relative gap {gap:.2e})",
            NearDegenerateWarning,
        )
    c = X[:, 0]
    u = _oriented(c / np.sqrt(c @ mass.apply(c)), system)
    return Eigenpair(lambda1=rayleigh_quotient(u, factor, mass), u=u,
                     residual=float(res[0]), gap=gap, iterations=step)
