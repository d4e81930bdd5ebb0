"""Spectral solver and density optimizer for the partially hinged plate.

The plate (0, pi) x (-ell, ell) is hinged on its short edges and free on
the long ones.  The package solves the weighted eigenproblem of the
bending operator, runs the rearrangement loop that minimizes the first
eigenvalue over two-material densities of fixed mass, and numerically
certifies the kernel positivity, edge-slope, series and polarization
properties that underpin the symmetry analysis of the optimal plate.
"""

__version__ = "0.1.0"

from .config import InputError, PlateConfig, load_config
from .grid import QuadratureGrid
from .basis import basis_matrix, evaluate_on_grid
from .assembly import StiffnessFactor, assemble_weighted_mass
from .eigensolve import EIG_TOL, Eigenpair, SolverError, rayleigh_quotient, solve_first
from .optimize import (
    AnalysisError,
    DensityField,
    OptimizationTrace,
    PlateSystem,
    bang_bang_from_values,
    minimize,
    random_admissible_density,
    rearrange,
    strip_density,
    uniform_density,
)
from .analysis import analyze_optimum, midline_slope_check
from .green import (
    apply,
    kernel,
    quadratic_form,
    reflection_gap,
)
from .series import (
    CoefficientSequence,
    alternating_edge_slope_series,
    check_sine_lower_bound,
    constant_CN,
    constant_CbarN,
    edge_slope_series,
    pair_term_margin,
    ratio_crossing_angle,
    sequence_family,
)
from .polarization import (
    polarization_energy_gap,
    polarize,
    theta1_quotient,
)
from .certify import CertificationReport, run_suite
