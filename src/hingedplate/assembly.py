"""Assembly of the energy (stiffness) form and the weighted mass form.

The energy inner product couples Delta u Delta v with the mixed-derivative
correction weighted by (1 - sigma).  For the tensor basis the x-integrals
are exact sine/cosine orthogonality relations, so the stiffness matrix is
block diagonal over the sine mode; only the y-integrals use quadrature,
and those are exact too because the y-factors are polynomials.  The
energy matrix is only ever held as one stacked array of its per-mode
blocks and their inverses, computed once, so a solve factors nothing.
The weighted mass form goes through the tensor grid (the density is
node-sampled) and is only applied.  The stiffness reads the config, the
mass form the grid and basis tables that `PlateSystem` holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PlateConfig
from .grid import QuadratureGrid


class AssemblyError(RuntimeError):
    """Assembled form violates its contract (non-finite, or p <= 0)."""


def stiffness_blocks(cfg: PlateConfig, grid: QuadratureGrid, y_tables) -> np.ndarray:
    """Per-sine-mode blocks of the energy matrix, stacked as (n_modes_x, J, J).

    For u = sin(m x) f(y), v = sin(m x) g(y) the energy form reduces, after
    integrating the trig factors exactly over (0, pi), to

        (pi/2) * int [ f'' g'' + m^4 f g - sigma m^2 (f'' g + f g'')
                       + 2 (1 - sigma) m^2 f' g' ] dy.

    `y_tables` are the y-factors and their first two derivatives on
    grid.nodes_y, as _legendre_tables(..., max_deriv=2) returns them.
    """
    V0, V1, V2 = y_tables
    wy = grid.weights_y[:, None]
    bend = (V2 * wy).T @ V2
    mass = (V0 * wy).T @ V0
    cross = (V2 * wy).T @ V0
    shear = (V1 * wy).T @ V1
    modes = np.arange(1, cfg.n_modes_x + 1)
    m2 = modes.astype(float)[:, None, None] ** 2
    blk = bend + m2 * m2 * mass - cfg.sigma * m2 * (cross + cross.T) \
        + 2.0 * (1.0 - cfg.sigma) * m2 * shear
    blocks = 0.5 * np.pi * 0.5 * (blk + blk.transpose(0, 2, 1))
    bad = modes[~np.isfinite(blocks).all(axis=(1, 2))]
    if bad.size:
        raise AssemblyError(f"non-finite stiffness entries in modes m={bad.tolist()}")
    return blocks


@dataclass(frozen=True)
class WeightedMass:
    """The weighted mass matrix M_p of one density, never formed densely.

    Entry ((m,j),(m',j')) is sum_i S[m,i] S[m',i] A[i,j,j'], so a product is
    two sine-table contractions around one batched matmul over the x-nodes
    (sum factorization; Deville, Fischer & Mund 2002, ch. 4).
    """

    S: np.ndarray    # (n_modes_x, n_quad_x) sine table
    A: np.ndarray    # (n_quad_x, J, J): A[i] = wx_i L^T diag(wy p_i) L, exactly symmetric
    contrast: float  # max p / min p over the nodes

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M_p x for one vector or a (dimension, k) block of vectors."""
        nx, J, _ = self.A.shape
        Y = (self.S.T @ np.reshape(x, (self.S.shape[0], -1))).reshape(nx, J, -1)
        return (self.S @ (self.A @ Y).reshape(nx, -1)).reshape(np.shape(x))

    def diagonal_blocks(self) -> np.ndarray:
        """The diagonal J x J blocks D_m of M_p, stacked as (n_modes_x, J, J)."""
        nx, J, _ = self.A.shape
        return ((self.S * self.S) @ self.A.reshape(nx, -1)).reshape(-1, J, J)


def assemble_weighted_mass(system, p: np.ndarray) -> WeightedMass:
    """M_p (entry (a,b) = sum_nodes w p phi_a phi_b) on the system's grid
    and its tables S (sin(m x_i)) and L (psi_j(y_k)); only the per-node
    moments A are computed here.
    `p` is the (n_quad_x, n_quad_y) array of density values at the nodes.

    The moments are one GEMM of the weighted density with the row-wise
    Kronecker (Khatri-Rao) table LL[k, (j, j')] = L[k, j] L[k, j'].  Its
    (j, j') and (j', j) columns are equal bit for bit, so A is exactly
    symmetric without a symmetrizing step."""
    p_min = p.min()
    if p_min <= 0.0:
        raise AssemblyError("density must be strictly positive at every node")
    L = system.L
    ny, J = L.shape
    LL = (L[:, :, None] * L[:, None, :]).reshape(ny, J * J)
    A = ((system.grid.weights * p) @ LL).reshape(-1, J, J)
    if not np.all(np.isfinite(A)):
        raise AssemblyError("non-finite weighted mass moments")
    return WeightedMass(S=system.S, A=A, contrast=float(p.max() / p_min))


@dataclass(frozen=True)
class StiffnessFactor:
    """The energy matrix K as its stacked per-sine-mode blocks.

    `blocks` is one (n_modes_x, J, J) array and `inverse` their inverses,
    computed once at build since every solve of every density uses the same
    blocks; no dimension x dimension energy matrix is ever formed.  Every
    operation views its operand as (n_modes_x, J, k) and is one batched
    product over all blocks.  Exact block diagonality keeps each block
    small (cond(K_1) ~1e8 at J = 24): the inverse's product stays backward
    stable per block to ~1e-16 (tests/test_assembly.py bounds it by 1e-15),
    so the eigensolve reaches 1e-14 to 1e-12 relative eigenpair residuals
    where a monolithic dense factorization would lose several digits.
    The blocks' definiteness is checked once, by `PlateSystem` from its
    p = 1 spectrum.
    """

    blocks: np.ndarray
    inverse: np.ndarray

    @classmethod
    def build(cls, cfg: PlateConfig, grid: QuadratureGrid, y_tables) -> "StiffnessFactor":
        blocks = stiffness_blocks(cfg, grid, y_tables)
        return cls(blocks=blocks, inverse=np.linalg.inv(blocks))

    def _stacked(self, x):
        """x, one vector or a (dimension, k) block, as (n_modes_x, J, k)."""
        return np.asarray(x, dtype=float).reshape(*self.blocks.shape[:2], -1)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """K x for one vector or a (dimension, k) block of vectors."""
        return (self.blocks @ self._stacked(x)).reshape(np.shape(x))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve K x = rhs for one vector or a (dimension, k) block of vectors
        (one batched product with the stored inverses)."""
        return (self.inverse @ self._stacked(rhs)).reshape(np.shape(rhs))
