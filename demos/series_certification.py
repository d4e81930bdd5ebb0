"""Certify the sign of the kernel's edge-slope series with hard tail bounds.

The slope of the influence kernel at the hinged edge expands as
sum_m c_m sin(m z) / m^2 with positive, strictly decreasing coefficients.
A grid evaluation alone would only be an observation; here each value
carries an analytic bound on the whole omitted tail, so a certified sign
survives truncation.
"""

import math

from hingedplate import (
    constant_CN,
    constant_CbarN,
    edge_slope_series,
    ratio_crossing_angle,
    sequence_family,
)
from hingedplate.series import DEFAULT_FAMILIES, certify_series

print(f"{'family':>12} {'S+ margin':>12} {'S- margin':>12} {'envelope':>12}")
for tag in DEFAULT_FAMILIES:
    reports = {r.claim_id: r for r in certify_series(families=(tag,))}
    pos = reports["series-positive"]
    neg = reports["series-alternating-negative"]
    env = reports["series-lower-envelope"]
    flag = "ok" if (pos.passed and neg.passed and env.passed) else "FAIL"
    print(f"{tag:>12} {pos.min_margin:>12.3e} {neg.min_margin:>12.3e} "
          f"{env.min_margin:>12.3e}  {flag}")

seq = sequence_family("inverse", 20000)
val = edge_slope_series(seq, math.pi / 2)
print(f"\nclosed-form anchor: series(pi/2) for c_m = 1/m")
print(f"  computed {val.value:.15f}  vs  pi^3/32 = {math.pi ** 3 / 32:.15f}")
print(f"  tail bound carried: {val.tail_bound:.2e}")

print("\nelementary ratio bounds used by the sign proof:")
print(f"{'N':>6} {'C_N':>12} {'1/N':>10} {'C_N < 1/N':>10}")
for n in (2, 3, 10, 100, 500):
    c = constant_CN(n)
    print(f"{n:>6} {c:>12.6f} {1.0 / n:>10.6f} {str(c < 1 / n):>10}")
print(f"{'N':>6} {'Cbar_N':>12} {'4/(3(N+1))':>12}")
for n in (3, 9, 99, 199):
    print(f"{n:>6} {constant_CbarN(n):>12.6f} {4 / (3 * (n + 1)):>12.6f}")
z3 = ratio_crossing_angle(3)
print(f"\ncrossing angle z_3 = arcsin(C_3) = {z3:.5f}  (close to 0.21, below pi/5)")
