"""Solve the homogeneous partially hinged plate and watch the basis converge.

The plate (0, pi) x (-ell, ell) is hinged on the short edges and free on the
long ones.  With density p = 1 the first eigenfunction separates into a
single sine mode times an even cross profile, so the eigenvalue stops
moving once the polynomial resolution in y is adequate; the sine count M
beyond 1 changes nothing, which is a nice sanity check of the assembly.
"""

import numpy as np

from hingedplate import EIG_TOL, PlateConfig, PlateSystem, basis_matrix, uniform_density

print("basis convergence of lambda1 for the homogeneous plate")
print(f"{'M':>4} {'J':>4} {'lambda1':>16} {'residual':>14}")
for M, J in [(4, 4), (4, 8), (4, 12), (10, 12), (20, 12)]:
    cfg = PlateConfig(n_modes_x=M, n_basis_y=J)
    system = PlateSystem(cfg)
    pair = system.solve_density(uniform_density(system))
    # a bound, not the residual itself, which moves with the last bits
    residual = (f"below {EIG_TOL:.0e}" if pair.residual < EIG_TOL
                else f"{pair.residual:.2e}")
    print(f"{M:>4} {J:>4} {pair.lambda1:>16.12g} {residual:>14}")

cfg = PlateConfig()
system = PlateSystem(cfg)
pair = system.solve_density(uniform_density(system))
u = system.grid_values(pair.u)

print("\nfirst eigenfunction at the default resolution:")
print(f"  min over nodes        {u.min():.6f}   (positive throughout)")
print(f"  max over nodes        {u.max():.6f}")
print(f"  weighted L2 norm      {system.grid.integrate(u ** 2):.12f} (normalized to 1)")

ys = system.grid.nodes_y
slopes0 = pair.u @ basis_matrix(cfg, np.column_stack([np.zeros(ys.size), ys]), dx=1)
print(f"  edge slope at x=0     min {slopes0.min():.6f}  (rises off the hinge)")
