"""Probe the discrete influence kernel of the hinged-free plate.

The kernel G(P, Q) answers "how much does the plate deflect at P when a
unit load sits at Q".  Everything the symmetry analysis needs is visible
numerically: G is strictly positive inside the plate, its x-slope at the
hinged edges has a fixed sign, the slope on the midline flips sign with
the side the load sits on, and moving a point toward the midline by
reflection never decreases the kernel.
"""

import math

import numpy as np

from hingedplate import PlateConfig, PlateSystem, kernel, reflection_gap
from hingedplate.green import interior_probe_points

cfg = PlateConfig()
system = PlateSystem(cfg)

probes = interior_probe_points(system, 20, 10)
G = kernel(system, probes, probes)
# a bound, not the rounding residue max|G - G^T|, which moves with the last bits
asymmetry = np.abs(G - G.T).max()
symmetry = "below 1e-13" if asymmetry < 1e-13 else f"{asymmetry:.1e} only"
print(f"kernel on {G.shape[0]}^2 interior probe pairs:")
print(f"  min {G.min():.3e}   max {G.max():.3e}   symmetric to {symmetry}")

ys = np.linspace(-cfg.ell, cfg.ell, 7)
slope_0 = kernel(system, ([0.0], ys), probes, dx=1)
slope_pi = kernel(system, ([math.pi], ys), probes, dx=1)
print("\nx-slope of the kernel at the hinged edges:")
print(f"  at x=0  : min {slope_0.min():.3e}  (all positive)")
print(f"  at x=pi : max {slope_pi.max():.3e}  (all negative)")

mid = kernel(system, ([math.pi / 2], ys), probes, dx=1)
source_x = np.repeat(probes[0], probes[1].size)  # the lattice is x-major
left = mid[:, source_x < math.pi / 2 - 1e-9]
right = mid[:, source_x > math.pi / 2 + 1e-9]
print("\nslope on the midline x = pi/2, split by source side:")
print(f"  sources left  of the midline: max {left.max():.3e}  (negative)")
print(f"  sources right of the midline: min {right.min():.3e}  (positive)")

half = interior_probe_points(system, 12, 6, half_plane=True)
print(f"\nreflection gap on the left half (strictly positive means the kernel")
print(f"prefers mass toward the midline): min {reflection_gap(system, half):.3e}")
