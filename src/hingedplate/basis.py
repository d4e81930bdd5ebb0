"""Galerkin basis sin(m x) * P_j(y / ell) and fields expanded in it.

Every basis function vanishes on the hinged edges x = 0, pi, is C^2 on the
closed rectangle, and the x-factors are mutually orthogonal on (0, pi),
which makes the energy matrix exactly block diagonal over the sine mode.
The y-factors are Legendre polynomials mapped to (-ell, ell); the free-edge
conditions are natural for the weak form, so no boundary constraint is
needed in y.  The config's n_modes_x, n_basis_y and ell fix the basis;
the functions here build its per-axis tables from them.  A field is its
flat (dimension,) coefficient vector, entry (m-1)*n_basis_y + j for
sin(m x) * psi_j(y).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as npleg

from .config import PlateConfig


def _legendre_tables(y: np.ndarray, n_funcs: int, ell: float, max_deriv: int = 0):
    """Values (and y-derivatives up to max_deriv) of P_0..P_{n-1}(y/ell).

    Returns a list of C-contiguous (len(y), n_funcs) arrays, one per
    derivative order.  Each order is one Clenshaw pass of npleg.legval,
    broadcast over the points (rows) and the columns of the identity's
    derivative coefficients; a column's zero high coefficients leave the
    recurrence exactly where a call on that column alone starts, so every
    entry has the bits of a per-column evaluation.
    """
    s = np.asarray(y, dtype=float).reshape(-1, 1) / ell
    eye = np.eye(n_funcs)
    return [npleg.legval(s, npleg.legder(eye, d), tensor=False) / ell**d
            for d in range(max_deriv + 1)]


def _sine_table(n_modes: int, x: np.ndarray, dx: int) -> np.ndarray:
    """dx-th x-derivative of sin(m x) for m = 1..n_modes, shape (n_modes, len(x))."""
    ms = np.arange(1, n_modes + 1, dtype=float)
    ang = np.outer(ms, x)
    if dx == 0:
        return np.sin(ang)
    if dx == 1:
        return ms[:, None] * np.cos(ang)
    if dx == 2:
        return -(ms[:, None] ** 2) * np.sin(ang)
    raise ValueError("dx must be 0, 1 or 2")


def basis_matrix(cfg: PlateConfig, points: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
    """Basis values (dimension, n_points) at arbitrary points, row
    (m-1)*n_basis_y + j for sin(m x) * psi_j(y); dx, dy select the x- and
    y-derivative order (0, 1 or 2 each).  The dense reference evaluation:
    the package contracts per-axis tables instead and never forms it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    fx = _sine_table(cfg.n_modes_x, pts[:, 0], dx)
    fy = _legendre_tables(pts[:, 1], cfg.n_basis_y, cfg.ell, max_deriv=dy)[dy]
    return np.einsum("mk,kj->mjk", fx, fy).reshape(cfg.n_modes_x * cfg.n_basis_y, pts.shape[0])


def evaluate_on_grid(c: np.ndarray, x_table: np.ndarray, y_table: np.ndarray) -> np.ndarray:
    """The field of the coefficient vector c on a tensor lattice xs x ys,
    shape (len(xs), len(ys)).

    x_table (n_modes_x, len(xs)) holds a derivative of sin(m x) at xs (a
    `_sine_table`) and y_table (len(ys), n_basis_y) one of psi_j(y) at ys
    (a `_legendre_tables` entry); the basis value of (m, j) at (x_a, y_b)
    is x_table[m, a] * y_table[b, j], so the lattice costs two 1-D
    contractions and no (dimension x points) matrix.
    """
    return x_table.T @ c.reshape(len(x_table), -1) @ y_table.T
