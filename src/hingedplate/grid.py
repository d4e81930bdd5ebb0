"""Tensor Gauss-Legendre quadrature grid; a field's node values on it are
one (n_quad_x, n_quad_y) array, row i at nodes_x[i]."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import PlateConfig


def _gauss_nodes(n: int, lo: float, hi: float):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre tensor grid on (0, pi) x (-ell, ell).

    Nodes are open-interval (no boundary points) and symmetric under the
    reflections x -> pi - x and y -> -y; the tensor weight of node (i, k)
    is weights[i, k] = weights_x[i] * weights_y[k].
    """

    nodes_x: np.ndarray
    weights_x: np.ndarray
    nodes_y: np.ndarray
    weights_y: np.ndarray

    @classmethod
    def from_config(cls, cfg: PlateConfig) -> "QuadratureGrid":
        nx, wx = _gauss_nodes(cfg.n_quad_x, 0.0, np.pi)
        ny, wy = _gauss_nodes(cfg.n_quad_y, -cfg.ell, cfg.ell)
        return cls(nodes_x=nx, weights_x=wx, nodes_y=ny, weights_y=wy)

    @property
    def shape(self):
        return (self.nodes_x.size, self.nodes_y.size)

    @cached_property
    def weights(self) -> np.ndarray:
        """Node weights as an (n_quad_x, n_quad_y) matrix, built once, read-only."""
        w = np.outer(self.weights_x, self.weights_y)
        w.flags.writeable = False
        return w

    def meshgrid(self):
        """Node coordinates X, Y as (n_quad_x, n_quad_y) matrices."""
        return np.meshgrid(self.nodes_x, self.nodes_y, indexing="ij")

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of node values (matrix or flat vector)."""
        return float(np.sum(self.weights * np.asarray(values).reshape(self.shape)))
