"""The benchmark's workloads and the reference results they are checked against.

A workload gives the program only a config file and CLI arguments.  The
benchmark appends ``--config`` and ``--out`` to every command and
``--seed <seed>`` to ``optimize``.  WORKLOADS.md says why each one exists.
"""

from __future__ import annotations

from dataclasses import dataclass

# No looser than the tier-1 tolerances: the golden uniform-plate eigenvalue
# is held to 1e-10 relative, and multistart agreement to 1e-8.
LAMBDA_RTOL = 1e-10
SPREAD_MAX = 1e-8


@dataclass(frozen=True)
class Workload:
    """One command sequence on one config, with its reference eigenvalues.

    ``solve_lambda`` is the eigenvalue ``solve`` must report and
    ``optimize_lambda`` the best eigenvalue over the starts of ``optimize``,
    both recorded from the program and held to LAMBDA_RTOL.
    ``spread_max`` caps the relative spread of the final eigenvalues
    across starts.
    """

    config: dict
    commands: tuple
    solve_lambda: float
    optimize_lambda: float
    spread_max: float = SPREAD_MAX


WORKLOADS = {
    "default-session": Workload(
        config={},
        commands=(("solve",),
                  ("optimize", "--starts", "4"),
                  ("certify", "--suite", "all")),
        solve_lambda=0.9666725981282404,
        optimize_lambda=0.6554319887049667,
        # Tier-1 asserts the 1e-8 agreement only at 512x128 quadrature.  At
        # this resolution the uniform start settles on a fixed point 5.04e-7
        # below the one the three other starts share, so the cap is that
        # recorded spread: a change that widens it fails the check.
        spread_max=5.04e-7,
    ),
    "fine-quadrature": Workload(
        config={"n_quad_x": 256, "n_quad_y": 64},
        commands=(("solve",),
                  ("optimize", "--starts", "4"),
                  ("certify", "--suite", "green")),
        solve_lambda=0.9666725981282434,
        optimize_lambda=0.6554180260489195,
    ),
    "large-basis": Workload(
        config={"n_modes_x": 80, "n_basis_y": 20, "n_quad_x": 160, "n_quad_y": 32},
        commands=(("solve",),
                  ("optimize", "--init", "left-heavy"),
                  ("certify", "--suite", "green")),
        solve_lambda=0.9666725981282466,
        optimize_lambda=0.6554250185161512,
    ),
}
