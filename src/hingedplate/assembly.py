"""Assembly of the energy (stiffness) form and the weighted mass form.

The energy inner product couples Delta u Delta v with the mixed-derivative
correction weighted by (1 - sigma).  For the tensor basis the x-integrals
are exact sine/cosine orthogonality relations, so the stiffness matrix is
block diagonal over the sine mode; only the y-integrals use quadrature,
and those are exact too because the y-factors are polynomials.  The
energy matrix is only ever held as its per-mode blocks and their Cholesky
factors.  The weighted mass matrix always goes through the tensor grid
since the density is node-sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .basis import SpectralBasis, _legendre_tables
from .grid import QuadratureGrid, GridField


class AssemblyError(RuntimeError):
    """Assembled matrix violates its contract (non-finite or not SPD)."""


def stiffness_blocks(basis: SpectralBasis, grid: QuadratureGrid, sigma: float):
    """Per-sine-mode blocks of the energy matrix.

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
    blocks = []
    for m in basis.modes_x:
        m2 = float(m) ** 2
        blk = bend + m2 * m2 * mass - sigma * m2 * (cross + cross.T) \
            + 2.0 * (1.0 - sigma) * m2 * shear
        blk = 0.5 * np.pi * 0.5 * (blk + blk.T)
        if not np.all(np.isfinite(blk)):
            raise AssemblyError(f"non-finite stiffness entries in mode m={m}")
        blocks.append(blk)
    return blocks


def assemble_weighted_mass(basis: SpectralBasis, grid: QuadratureGrid,
                           p: GridField, *, bounds=None) -> np.ndarray:
    """Mass matrix of the weighted L2 form, entry (a,b) = sum_nodes w p phi_a phi_b.

    Sum-factorized over the tensor grid: first the y-sums
    A[i,j,j'] = sum_k wy_k p_ik psi_j(y_k) psi_j'(y_k), then the x-sums
    M[(m,j),(m',j')] = sum_i wx_i sin(m x_i) sin(m' x_i) A[i,j,j'].

    When `bounds = (alpha, beta)` is given, node values outside
    [alpha - 1e-12, beta + 1e-12] are rejected.
    """
    vals = p.values
    if bounds is not None:
        alpha, beta = bounds
        if vals.min() < alpha - 1e-12 or vals.max() > beta + 1e-12:
            raise AssemblyError(
                f"density values [{vals.min():.6g}, {vals.max():.6g}] leave "
                f"the admissible range [{alpha}, {beta}]"
            )
    elif vals.min() <= 0.0:
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
    """Blockwise Cholesky factorization K = R^T R of the energy matrix.

    `blocks` are the per-sine-mode blocks of K and `factors` their upper
    triangular Cholesky factors, so R is block diagonal too.  The exact
    block diagonality keeps each factor small and well scaled, which is
    what lets solves reach ~1e-14 relative residuals where a monolithic
    dense factorization of the full matrix would lose several digits.
    Every operation acts block by block; no dimension x dimension energy
    matrix is ever formed.
    """

    blocks: tuple
    factors: tuple

    @classmethod
    def build(cls, basis: SpectralBasis, grid: QuadratureGrid, sigma: float) -> "StiffnessFactor":
        blocks = tuple(stiffness_blocks(basis, grid, sigma))
        try:
            factors = tuple(cholesky(blk, lower=False) for blk in blocks)
        except np.linalg.LinAlgError as exc:
            raise AssemblyError(f"energy matrix is not positive definite: {exc}") from exc
        return cls(blocks=blocks, factors=factors)

    def _rows(self):
        """Row slice of each block in the flat (mode-major) index."""
        J = self.factors[0].shape[0]
        return [slice(i * J, (i + 1) * J) for i in range(len(self.factors))]

    def _blockwise(self, mats, x, op):
        """op(matrix, rows of x) for each block, for one vector or a block of vectors."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for rows, mat in zip(self._rows(), mats):
            out[rows] = op(mat, x[rows])
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """K x for one vector or a (dimension, k) block of vectors."""
        return self._blockwise(self.blocks, x, np.matmul)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs for one vector or a (dimension, k) block of vectors."""
        return self._blockwise(self.factors, rhs, lambda R, b: cho_solve((R, False), b))

    def solve_upper(self, y: np.ndarray) -> np.ndarray:
        """R^{-1} y, the map back from the congruence-reduced coordinates."""
        return self._blockwise(self.factors, y, solve_triangular)

    def congruence(self, A: np.ndarray) -> np.ndarray:
        """R^{-T} A R^{-1} of a dense symmetric matrix, as one new array.

        Works in place in a single Fortran-ordered copy of A, so a LAPACK
        routine allowed to overwrite its input takes the result uncopied.
        """
        W = np.array(A, dtype=float, order="F")
        rows = self._rows()
        for r, R in zip(rows, self.factors):
            W[r] = solve_triangular(R, W[r], trans="T")
        for r, R in zip(rows, self.factors):
            W[:, r] = solve_triangular(R, W[:, r].T, trans="T").T
        return W
