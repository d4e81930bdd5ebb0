"""Iterative density rearrangement minimizing the first plate eigenvalue.

One sweep: solve the eigenproblem for the current density, then replace the
density by the two-material arrangement that puts the light material alpha
on the sublevel set of the eigenfunction whose measure is the fixed
fraction (beta-1)/(beta-alpha) of the plate, lighter where the plate moves
least.  That arrangement maximizes the weighted mass of the current
eigenfunction over all admissible densities, which forces the eigenvalue
sequence to be non increasing; the loop stops at a density fixed point or
when the eigenvalue stagnates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import StiffnessFactor, assemble_weighted_mass
from .basis import _legendre_tables, _sine_table, evaluate_on_grid
from .config import PlateConfig
from .eigensolve import Eigenpair, SolverError, _standard_form, solve_first
from .grid import QuadratureGrid

# Sweeps per start; one that neither settles nor stagnates ends as max_iter.
MAX_SWEEPS = 100
# Relative lambda1 change within rounding: a smaller fall stagnates, a larger rise fails.
STAGNATION_TOL = 1e-10


class AnalysisError(RuntimeError):
    """A computed eigenfunction fails a property the analysis requires of it."""


@dataclass(frozen=True)
class DensityField:
    """Admissible density: finite values in [alpha, beta], quadrature mass = area.

    Made on `system`, the `PlateSystem` that solves it, and checked on
    construction against its grid and config; the bounds are exact, with
    no slack: every density built here holds alpha, beta, 1 or a value
    clipped to [alpha, beta], and a dump read back is exact.  `gray_nodes`
    counts against the same bounds.
    Bang-bang densities take only the two material values except for at
    most one gray node holding the value that makes the mass exact.
    """

    system: PlateSystem
    values: np.ndarray

    def __post_init__(self):
        grid, cfg = self.system.grid, self.system.cfg
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != grid.shape:
            raise ValueError("density values do not match the grid")
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values contain non-finite entries")
        lo, hi = cfg.alpha, cfg.beta
        if vals.min() < lo or vals.max() > hi:
            raise ValueError(
                f"density range [{float(vals.min())!r}, {float(vals.max())!r}] violates "
                f"bounds [{lo}, {hi}]"
            )
        mass = grid.integrate(vals)
        if abs(mass - cfg.target_mass) > 1e-10 * cfg.target_mass:
            raise ValueError(
                f"density mass {mass!r} misses target {cfg.target_mass!r}"
            )

    @property
    def mass(self) -> float:
        return self.system.grid.integrate(self.values)

    def alpha_assignment(self) -> np.ndarray:
        """Boolean mask of nodes carrying the light material (gray counts as
        alpha when below the midpoint)."""
        return self.values < 0.5 * (self.system.cfg.alpha + self.system.cfg.beta)

    def sublevel_measure(self) -> float:
        return float(np.sum(self.system.grid.weights[self.alpha_assignment()]))

    def gray_nodes(self) -> int:
        cfg = self.system.cfg
        return int(np.sum((self.values > cfg.alpha) & (self.values < cfg.beta)))


def uniform_density(system: PlateSystem) -> DensityField:
    return DensityField(system, np.ones(system.grid.shape))


def _fill_with_gray_node(order, system: PlateSystem, target_measure, fill, rest):
    """(flat density, gray node): `fill` on the first nodes of `order` up to
    `target_measure`, `rest` elsewhere, one gray node making the mass exact.

    `order` is a permutation of the flat node indices.  Nodes enter in that
    order until the cumulative tensor weight reaches the target; the node
    straddling it, or the last if none does (beta = 1e100), is the gray node.
    """
    cum = np.cumsum(system.grid.weights.ravel()[order])
    r = min(int(np.searchsorted(cum, target_measure)), order.size - 1)
    p = np.full(order.size, rest, dtype=float)
    p[order[:r]] = fill
    gray_node = int(order[r])
    _close_mass(p, system, gray_node)
    return p, gray_node


def _close_mass(p_flat, system: PlateSystem, node):
    """Set p_flat[node] to (target mass - mass of every other node) / w_node.

    The other nodes' mass is 0.5 * sum(q + q[::-1]) with q = w * p and the
    node zeroed: each entry of q + q[::-1] is the sum of one mirror pair
    across x = pi/2, and float addition commutes, so values swapped within
    mirror pairs (what polarization does) give the same bits and the same
    node value.  This needs weights_x equal to its reverse bit for bit, as
    the Gauss-Legendre weights are for every even n_quad_x from 2 to 1024;
    PlateConfig rejects odd counts.  The value is clipped to [alpha, beta],
    which it leaves only by the sum's rounding over w_node, when the cut
    falls on a node boundary (a strip of heavy share 1/2 ends at the midline).
    """
    grid, cfg = system.grid, system.cfg
    p_flat[node] = 0.0
    q = grid.weights * p_flat.reshape(grid.shape)
    value = (cfg.target_mass - 0.5 * float(np.sum(q + q[::-1]))) / grid.weights.flat[node]
    p_flat[node] = min(cfg.beta, max(cfg.alpha, value))


def bang_bang_from_values(values: np.ndarray, system: PlateSystem):
    """Two-material density from node values: alpha on the low-value quantile.

    The sublevel set S collects nodes in ascending value, ties by flat node
    index (x-major), until its measure reaches sublevel_fraction * area; the
    one node straddling the target gets the gray value restoring the exact
    mass.  Returns the density and the squared threshold value t.

    Values that strictly increase once sorted admit one permutation, which
    any sort finds, so the default (unstable, faster) sort serves them; a
    tie, a signed zero or a NaN takes the stable sort, which carries the
    tie rule, at the cost of both sorts.
    """
    cfg = system.cfg
    flat = values.ravel()
    target = cfg.sublevel_fraction * cfg.target_mass
    order = np.argsort(flat)
    ranked = flat[order]
    if not np.all(ranked[1:] > ranked[:-1]):
        order = np.argsort(flat, kind="stable")
    p, gray_node = _fill_with_gray_node(order, system, target, cfg.alpha, cfg.beta)
    return DensityField(system, p.reshape(system.grid.shape)), float(flat[gray_node]) ** 2


def rearrange(u: np.ndarray, system: PlateSystem):
    """Optimal density for the current eigenfunction (one sweep of the loop).

    u is its coefficient vector.  Demands u strictly positive at every node
    (sampled from the system's tables); the returned density equals alpha
    exactly where u <= sqrt(t) up to the single gray node.
    """
    uvals = system.grid_values(u)
    if uvals.min() <= 0.0:
        raise AnalysisError(
            f"eigenfunction not strictly positive on the grid "
            f"(min {uvals.min():.3e}); cannot rearrange"
        )
    return bang_bang_from_values(uvals, system)


def random_admissible_density(system: PlateSystem, rng: np.random.Generator) -> DensityField:
    """Uniformly random node values shifted and clipped to the exact mass.

    m(s) = sum w clip(raw + s, alpha, beta) is piecewise linear in s, and node
    i adds w_i to its slope from alpha - raw_i <= 0 to beta - raw_i > 0, so
    raw in descending order sorts all 2n breakpoints and every slope is a
    cancellation-free positive sum.  The piece holding the target gives the
    shift, measured from the node that opens it: exact for it at beta = 1e100.
    """
    grid, cfg = system.grid, system.cfg
    raw = rng.uniform(cfg.alpha, cfg.beta, size=grid.shape)
    order = np.argsort(raw, axis=None)[::-1]
    r, w = raw.ravel()[order], grid.weights.ravel()[order]
    edge, node = np.repeat([cfg.alpha, cfg.beta], r.size), np.tile(r, 2)
    breaks = edge - node
    slope = np.concatenate((np.cumsum(w), np.cumsum(w[::-1])[-2::-1]))
    mass = np.cumsum(np.concatenate(([cfg.alpha * w.sum()], slope * np.diff(breaks))))
    k = int(np.searchsorted(mass[1:-1], cfg.target_mass, side="right"))  # piece k holds it
    offset = edge[k] + (cfg.target_mass - mass[k]) / slope[k]
    vals = np.clip((raw - node[k]) + offset, cfg.alpha, cfg.beta).ravel()
    # the node nearest 1 strictly inside (alpha, beta) closes the mass; a clipped one might not
    inside = (vals > cfg.alpha) & (vals < cfg.beta)
    _close_mass(vals, system, int(np.argmin(np.where(inside, np.abs(vals - 1.0), np.inf))))
    return DensityField(system, vals.reshape(grid.shape))


def strip_density(system: PlateSystem, side: str) -> DensityField:
    """All heavy material packed against one short edge (an asymmetric start).

    The heavy strip gets the measure (1-alpha)/(beta-alpha) * area that the
    mass constraint allows; one gray node makes the mass exact.  The left
    strip fills in flat (x-major) order; the right strip is its mirror image,
    gray value included, as _close_mass sums over mirror pairs.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    grid, cfg = system.grid, system.cfg
    heavy_measure = (1.0 - cfg.alpha) / (cfg.beta - cfg.alpha) * cfg.target_mass
    p = _fill_with_gray_node(np.arange(grid.weights.size), system, heavy_measure,
                             cfg.beta, cfg.alpha)[0].reshape(grid.shape)
    return DensityField(system, p if side == "left" else p[::-1].copy())


@dataclass(frozen=True)
class TraceRecord:
    """One sweep: its eigenvalue and rearrangement, and how the eigensolve went.

    `solve_iterations`, `residual` and `gap` copy the sweep's `Eigenpair`
    diagnostics (inverse-iteration steps, relative residual, relative
    spectral gap).
    """

    iteration: int
    lambda1: float
    threshold_t: float
    sublevel_measure: float
    density_change_measure: float
    solve_iterations: int
    residual: float
    gap: float


@dataclass
class OptimizationTrace:
    """Per-sweep records plus the converged state of one minimization run."""

    records: list
    status: str                 # 'fixed_point' | 'lambda_stagnant' | 'max_iter'
    final_density: DensityField
    final_eigenpair: Eigenpair

    @property
    def final_lambda(self) -> float:
        return self.records[-1].lambda1


class PlateSystem:
    """The one operator of a configuration, shared by all sweeps and kernels.

    One stacked set of energy blocks serves both the weighted eigensolve
    of every density and the solution operator u = G f of the plate
    problem, whose kernel the certifications probe; `minimize` and the
    certification suites take the system, so none of them builds another.
    Building it computes the p = 1 spectrum, which rejects an operator
    that rounding has made indefinite before anything uses it.

    `cfg` holds the discretization's counts and ell, the system its grid
    and tables: S[m-1, i] = sin(m x_i), L[k, j] = psi_j(y_k), and entry
    (m-1)*n_basis_y + j of a coefficient vector belongs to sin(m x) * psi_j(y).
    """

    def __init__(self, cfg: PlateConfig):
        self.cfg = cfg
        self.grid = QuadratureGrid.from_config(cfg)
        # psi_j(y_k) and its first two y-derivatives, one table each; the
        # energy blocks and every grid sample read them
        self.y_tables = _legendre_tables(self.grid.nodes_y, cfg.n_basis_y, cfg.ell,
                                         max_deriv=2)
        self.factor = StiffnessFactor.build(cfg, self.grid, self.y_tables)
        self.S = _sine_table(cfg.n_modes_x, self.grid.nodes_x, 0)
        self.L = self.y_tables[0]
        self.uniform_spectrum = self._uniform_spectrum()

    @property
    def dimension(self) -> int:
        """Number of basis functions, n_modes_x * n_basis_y."""
        return self.cfg.n_modes_x * self.cfg.n_basis_y

    def _uniform_spectrum(self) -> np.ndarray:
        """Eigenvalues of the pencils (K_m, D_m) at p = 1; (n_modes_x, J).

        Every D_m is c_m G, with one y-Gram matrix G = L^T diag(wy) L and
        c_m = sum_i wx_i S[m,i]^2, so theta_{m,j} are the eigenvalues of
        the pencil (K_m, G) over c_m: one batched eigenvalue-only solve,
        with G broadcast over the modes.  They carry an absolute error of
        about eps * max_j theta_{m,j} and set the eigensolver start's mode
        bound, which has a factor 2 of slack.

        This is the operator's one definiteness check.  G is positive
        definite (n_quad_y >= n_basis_y), so theta_{m,j} > 0 for all j
        exactly when K_m is; a value that is not positive (NaN included) is
        rounding gone wrong, as on a plate too thin for double precision:
        SolverError, before any solve or kernel probe.  A positive spectrum
        keeps at least one mode in the eigensolver's start, since the
        contrast is >= 1.
        """
        wyL = self.grid.weights_y[:, None] * self.L
        c = (self.S * self.S) @ self.grid.weights_x
        theta = _standard_form(self.factor.blocks, wyL.T @ self.L,
                               np.linalg.eigvalsh)[0] / c[:, None]
        if not np.all(theta > 0.0):
            raise SolverError(f"uniform plate spectrum is not positive (minimum "
                              f"{np.min(theta):.3e}); the plate is too thin or too "
                              f"ill-conditioned for double precision")
        return theta

    def grid_values(self, u: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        """The field of coefficient vector u, or its dx-th x- and dy-th
        y-derivative (0 to 2 each), at the grid nodes from the system's
        tables; no y-table is built (an x-derivative builds its sines)."""
        fx = self.S if dx == 0 else _sine_table(self.cfg.n_modes_x, self.grid.nodes_x, dx)
        return evaluate_on_grid(u, fx, self.y_tables[dy])

    def solve_density(self, p: DensityField) -> Eigenpair:
        """First pair at density p, which must be made on a system of this
        config (equal configs build identical grids): ValueError otherwise."""
        if p.system.cfg != self.cfg:
            raise ValueError("density was made on a system of another config")
        return solve_first(self, assemble_weighted_mass(self, p.values))

    def load_vector(self, f: np.ndarray) -> np.ndarray:
        """Galerkin load of node values f, entry a = sum_nodes w f phi_a."""
        return (self.S @ (self.grid.weights * f) @ self.L).ravel()


def minimize(system: PlateSystem, initial_p: DensityField) -> OptimizationTrace:
    """Run the rearrangement loop from one starting density.

    Each record holds one eigensolve plus the rearrangement computed from
    it.  The loop stops at an exact assignment fixed point, at relative
    eigenvalue stagnation below STAGNATION_TOL, or after MAX_SWEEPS
    rearrangement sweeps (so the trace carries at most MAX_SWEEPS + 1
    records and always closes with the eigenvalue of the final density).
    A step that increases the eigenvalue beyond STAGNATION_TOL relative raises
    SolverError: the variational chain guarantees decrease, so growth
    means a broken solve.
    """
    p = initial_p
    records = []
    status = None
    for it in range(MAX_SWEEPS + 1):
        pair = system.solve_density(p)
        last = records[-1].lambda1 if records else float("nan")  # NaN: no comparison holds
        if pair.lambda1 > last * (1.0 + STAGNATION_TOL):
            raise SolverError(
                f"sweep {it}: eigenvalue rose from {last!r} to {pair.lambda1!r}"
            )
        new_p, t = rearrange(pair.u, system)
        changed = new_p.alpha_assignment() != p.alpha_assignment()
        # the start density need not be two-material: its sweep records NaN
        change = float(np.sum(system.grid.weights[changed])) if records else float("nan")
        records.append(TraceRecord(
            iteration=it,
            lambda1=pair.lambda1,
            threshold_t=t,
            sublevel_measure=new_p.sublevel_measure(),
            density_change_measure=change,
            solve_iterations=pair.iterations,
            residual=pair.residual,
            gap=pair.gap,
        ))
        if change == 0.0 and np.array_equal(new_p.values, p.values):
            # rearranging reproduced the current density exactly
            status = "fixed_point"
            break
        if abs(pair.lambda1 - last) <= STAGNATION_TOL * last:
            status = "lambda_stagnant"
            break
        if it == MAX_SWEEPS:
            status = "max_iter"
            break
        p = new_p
    return OptimizationTrace(
        records=records, status=status, final_density=p, final_eigenpair=pair,
    )

