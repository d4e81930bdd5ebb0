"""Assembly of the energy (stiffness) form and the weighted mass form.

The energy inner product couples Delta u Delta v with the mixed-derivative
correction weighted by (1 - sigma).  For the tensor basis the x-integrals
are exact sine/cosine orthogonality relations, so the stiffness matrix is
block diagonal over the sine mode; only the y-integrals use quadrature,
and those are exact too because the y-factors are polynomials.  The
energy matrix is only ever held as one stacked array of its per-mode
blocks; no factorization of it is kept.  The weighted mass matrix always
goes through the tensor grid since the density is node-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpectralBasis, _legendre_tables
from .grid import QuadratureGrid, GridField


class AssemblyError(RuntimeError):
    """Assembled matrix violates its contract (non-finite or not SPD)."""


def stiffness_blocks(basis: SpectralBasis, grid: QuadratureGrid, sigma: float) -> np.ndarray:
    """Per-sine-mode blocks of the energy matrix, stacked as (n_modes_x, J, J).

    For u = sin(m x) f(y), v = sin(m x) g(y) the energy form reduces, after
    integrating the trig factors exactly over (0, pi), to

        (pi/2) * int [ f'' g'' + m^4 f g - sigma m^2 (f'' g + f g'')
                       + 2 (1 - sigma) m^2 f' g' ] dy.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    V0, V1, V2 = _legendre_tables(grid.nodes_y, basis.n_basis_y, basis.ell, max_deriv=2)
    wy = grid.weights_y[:, None]
    bend = (V2 * wy).T @ V2
    mass = (V0 * wy).T @ V0
    cross = (V2 * wy).T @ V0
    shear = (V1 * wy).T @ V1
    m2 = basis.modes_x.astype(float)[:, None, None] ** 2
    blk = bend + m2 * m2 * mass - sigma * m2 * (cross + cross.T) \
        + 2.0 * (1.0 - sigma) * m2 * shear
    blocks = 0.5 * np.pi * 0.5 * (blk + blk.transpose(0, 2, 1))
    bad = basis.modes_x[~np.isfinite(blocks).all(axis=(1, 2))]
    if bad.size:
        raise AssemblyError(f"non-finite stiffness entries in modes m={bad.tolist()}")
    return blocks


def assemble_weighted_mass(basis: SpectralBasis, grid: QuadratureGrid,
                           p: GridField) -> np.ndarray:
    """Mass matrix of the weighted L2 form, entry (a,b) = sum_nodes w p phi_a phi_b.

    Sum-factorized over the tensor grid: first the y-sums
    A[i,j,j'] = sum_k wy_k p_ik psi_j(y_k) psi_j'(y_k), then the x-sums
    M[(m,j),(m',j')] = sum_i wx_i sin(m x_i) sin(m' x_i) A[i,j,j'].
    """
    vals = p.values
    if vals.min() <= 0.0:
        raise AssemblyError("density must be strictly positive at every node")
    S, L = basis.axis_tables(grid)
    nm, J = basis.n_modes_x, basis.n_basis_y
    nx = grid.shape[0]
    wpL = (vals * grid.weights_y)[:, :, None] * L          # (nx, ny, J)
    A = np.matmul(wpL.transpose(0, 2, 1), L)               # (nx, J, J)
    SS = (S * grid.weights_x)[:, None, :] * S[None, :, :]  # (M, M, nx)
    M = (SS.reshape(nm * nm, nx) @ A.reshape(nx, J * J)) \
        .reshape(nm, nm, J, J).transpose(0, 2, 1, 3).reshape(basis.dimension, -1)
    if not np.all(np.isfinite(M)):
        raise AssemblyError("non-finite mass matrix entries")
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class StiffnessFactor:
    """The energy matrix K as its stacked per-sine-mode blocks.

    `blocks` is one (n_modes_x, J, J) array; no dimension x dimension
    energy matrix and no stored factorization is ever kept.  Every
    operation views its operand as (n_modes_x, J, k) and acts on all
    blocks in one batched call.  The exact block diagonality keeps each
    block small and well scaled, which is what lets the eigensolve reach
    ~1e-14 relative eigenpair residuals where a monolithic dense
    factorization of the full matrix would lose several digits.
    """

    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", np.asarray(self.blocks, dtype=float))

    @classmethod
    def build(cls, basis: SpectralBasis, grid: QuadratureGrid, sigma: float) -> "StiffnessFactor":
        blocks = stiffness_blocks(basis, grid, sigma)
        try:  # the definiteness check; the Cholesky factor itself is not kept
            np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"energy matrix is not positive definite: {exc}") from exc
        return cls(blocks=blocks)

    def _stacked(self, x):
        """x, one vector or a (dimension, k) block, as (n_modes_x, J, k)."""
        return np.asarray(x, dtype=float).reshape(*self.blocks.shape[:2], -1)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """K x for one vector or a (dimension, k) block of vectors."""
        return (self.blocks @ self._stacked(x)).reshape(np.shape(x))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs for one vector or a (dimension, k) block of vectors
        (one batched LU solve)."""
        return np.linalg.solve(self.blocks, self._stacked(rhs)).reshape(np.shape(rhs))
