"""Sine series with decreasing coefficients and their sign certifications.

The kernel's edge slope expands as sum_m c_m sin(m z) / m^2 with strictly
positive, strictly decreasing coefficients; its sign on (0, pi), together
with a handful of elementary ratio bounds, carries the whole edge-slope
analysis.  Coefficient sequences here are synthetic families that satisfy
exactly the two hypotheses the analysis consumes (positivity and strict
decrease), and every sign claim is certified: a partial sum only counts as
positive when it exceeds a rigorous bound on everything left in the tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import make_report

PI2_OVER_6 = math.pi ** 2 / 6.0
PAIR_TERM_N = 50
PAIR_TERM_GRID = 200


@dataclass(frozen=True)
class CoefficientSequence:
    """Strictly positive, strictly decreasing coefficients c_1..c_L."""

    values: np.ndarray
    tag: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("coefficient sequence must be a nonempty vector")
        if not np.all(vals > 0.0):
            raise ValueError(f"sequence {self.tag!r} has nonpositive entries")
        if not np.all(np.diff(vals) < 0.0):
            raise ValueError(f"sequence {self.tag!r} is not strictly decreasing")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


_GENERATORS = {
    "inverse": lambda m: 1.0 / m,
    "geometric": lambda m: 0.5 ** m,
    "inverse-log": lambda m: 1.0 / np.log(m + 1.0),
    "power-0.5": lambda m: m ** -0.5,
    "power-1.5": lambda m: m ** -1.5,
    "power-2": lambda m: m ** -2.0,
}

DEFAULT_FAMILIES = tuple(_GENERATORS)


def sequence_family(tag: str, length: int) -> CoefficientSequence:
    """One of the built-in admissible families, truncated at `length`.

    Fast-decaying families underflow to zero in double precision; the
    sequence is then cut at its longest strictly positive, strictly
    decreasing prefix (the tail bound is long since negligible there).
    """
    try:
        gen = _GENERATORS[tag]
    except KeyError:
        raise KeyError(f"unknown family {tag!r}; choose from {DEFAULT_FAMILIES}") from None
    m = np.arange(1, length + 1, dtype=float)
    vals = gen(m)
    bad = np.flatnonzero((vals <= 0.0) | np.concatenate([[False], np.diff(vals) >= 0.0]))
    if bad.size:
        vals = vals[: bad[0]]
    return CoefficientSequence(values=vals, tag=tag)


def sum_inverse_squares_tail(n: int) -> float:
    """sum_{m > n} 1/m^2, from the closed value pi^2/6 of the full sum."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    head = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float) ** 2))
    return PI2_OVER_6 - head


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum plus a bound covering every omitted term.

    The sign of the full series is certified whenever |value| > tail_bound.
    """

    value: float
    tail_bound: float


def _tail_bound(seq: CoefficientSequence) -> float:
    """Bound on everything past the last term L: the coefficients decrease, so
    the omitted terms sum to at most c_L * sum_{m>L} 1/m^2 regardless of z."""
    return float(seq.values[-1]) * sum_inverse_squares_tail(len(seq))


def _pointwise_series(seq: CoefficientSequence, z, alternating: bool) -> SeriesValue:
    m = np.arange(1, len(seq) + 1, dtype=float)
    coeff = seq.values / m ** 2
    if alternating:
        coeff[::2] = -coeff[::2]                    # (-1)^m is -1 at odd m
    value = float(np.sum(coeff * np.sin(m * float(z))))
    return SeriesValue(value=value, tail_bound=_tail_bound(seq))


def edge_slope_series(seq: CoefficientSequence, z) -> SeriesValue:
    """Partial sum of sum_m c_m sin(m z) / m^2 with its tail bound."""
    return _pointwise_series(seq, z, alternating=False)


def alternating_edge_slope_series(seq: CoefficientSequence, z) -> SeriesValue:
    """Partial sum of sum_m (-1)^m c_m sin(m z) / m^2 with its tail bound."""
    return _pointwise_series(seq, z, alternating=True)


def _series_values_on_grid(seq: CoefficientSequence, grid_points: int) -> np.ndarray:
    """The plain and the alternating series at z_k = pi k / (N+1), k = 1..N.

    On this grid sin(m z_k) depends on m only modulo P = 2(N+1), so the
    terms c_m / m^2 fold into P bins b_r, and sum_r b_r sin(2 pi r k / P)
    is minus the imaginary part of the real FFT of b.  P is even, so the
    alternating series folds into (-1)^r b_r; both rows take one FFT.
    """
    period = 2 * (grid_points + 1)
    m = np.arange(1, len(seq) + 1)
    bins = np.bincount(m % period, weights=seq.values / m.astype(float) ** 2,
                       minlength=period)
    signs = np.where(np.arange(period) % 2 == 0, 1.0, -1.0)
    return -np.fft.rfft(np.stack([bins, signs * bins])).imag[:, 1:grid_points + 1]


def _positive_margin(seq: CoefficientSequence, vals: np.ndarray) -> float:
    """Smallest grid value of the series less the tail bound."""
    return float(vals.min() - _tail_bound(seq))


def constant_CN(n: int) -> float:
    """Tail-to-head ratio of sum 1/m^2 split at N."""
    if n < 1:
        raise ValueError("N must be >= 1")
    head = float(np.sum(1.0 / np.arange(1, n + 1, dtype=float) ** 2))
    return sum_inverse_squares_tail(n) / head


def constant_CbarN(n: int) -> float:
    """Tail past N+1 against 3/4 plus the odd-pair gap squares up to N."""
    if n < 3 or n % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    odd = np.arange(3, n + 1, 2, dtype=float)
    denom = 0.75 + float(np.sum((1.0 / odd - 1.0 / (odd + 1.0)) ** 2))
    return sum_inverse_squares_tail(n + 1) / denom


def ratio_crossing_angle(n: int) -> float:
    """Angle z_N in (0, pi/2) with sin(z_N) equal to the tail-to-head ratio."""
    c = constant_CN(n)
    if not 0.0 < c < 1.0:
        raise ValueError(f"ratio {c} leaves (0, 1); no crossing angle")
    return math.asin(c)


def check_sine_lower_bound(xs: np.ndarray):
    """sin(x) >= (3/pi) x on (0, pi/6], pointwise on the given grid."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0 or xs.min() <= 0.0 or xs.max() > math.pi / 6 + 1e-15:
        raise ValueError("grid must lie in (0, pi/6]")
    return make_report("sine-chord-bound", xs.size, np.min(np.sin(xs) - (3.0 / math.pi) * xs),
                       f"grid={xs.size}")


def pair_term_margin(m: int, z) -> float:
    """sin(mz)/m^2 - sin((m+1)z)/(m+1)^2 - sin(z) (1/m - 1/(m+1))^2.

    The margin by which one series term beats its successor plus the gap
    penalty; positive on (0, pi/(N+1)) for m = 3..N.
    """
    if m < 3:
        raise ValueError("pair-term margin is defined for m >= 3")
    z = np.asarray(z, dtype=float)
    gap = 1.0 / m - 1.0 / (m + 1.0)
    return np.sin(m * z) / m ** 2 - np.sin((m + 1.0) * z) / (m + 1.0) ** 2 \
        - np.sin(z) * gap ** 2


def certify_pair_term_margin():
    """Positivity of the margin for every m = 3..N on (0, pi/(N+1))."""
    eps = math.pi / (PAIR_TERM_N + 1) / (PAIR_TERM_GRID + 1)
    zs = np.linspace(eps, math.pi / (PAIR_TERM_N + 1) - eps, PAIR_TERM_GRID)
    worst = np.inf
    for m in range(3, PAIR_TERM_N + 1):
        worst = min(worst, float(np.min(pair_term_margin(m, zs))))
    return make_report("pair-term-margin-positive", (PAIR_TERM_N - 2) * PAIR_TERM_GRID, worst,
                       f"N={PAIR_TERM_N}, grid={PAIR_TERM_GRID}")


def _envelope_margin(seq: CoefficientSequence, zs: np.ndarray, vals: np.ndarray) -> float:
    """Smallest excess of the series values at zs, less the tail bound, over
    the envelope c_1 (sin z - (pi^2/6 - 1))."""
    envelope = seq.values[0] * (np.sin(zs) - (PI2_OVER_6 - 1.0))
    return float(np.min(vals - _tail_bound(seq) - envelope))


def certify_series(*, grid_points: int = 999, terms: int = 20000,
                   families=DEFAULT_FAMILIES) -> list:
    """Full series suite: sign certifications plus the elementary bounds.

    Each family is evaluated once, on zs = pi k / (grid_points + 1), by one
    folded real FFT that gives the plain and the alternating series
    together.  Positivity and the lower envelope use the plain values, and
    the alternating claim the negated alternating ones.
    """
    zs = np.pi * np.arange(1, grid_points + 1) / (grid_points + 1)
    reports = []
    worst_pos, worst_neg, worst_env = np.inf, np.inf, np.inf
    for tag in families:
        seq = sequence_family(tag, terms)
        vals, alternating = _series_values_on_grid(seq, grid_points)
        worst_pos = min(worst_pos, _positive_margin(seq, vals))
        worst_neg = min(worst_neg, _positive_margin(seq, -alternating))
        worst_env = min(worst_env, _envelope_margin(seq, zs, vals))
    res = f"families={len(families)}, terms={terms}, grid={grid_points}"
    probes = len(families) * grid_points
    reports.append(make_report("series-positive", probes, worst_pos, res))
    reports.append(make_report("series-alternating-negative", probes, worst_neg, res))
    reports.append(make_report("series-lower-envelope", probes, worst_env, res))

    ns = np.arange(2, 501)
    margins = np.array([1.0 / n - constant_CN(n) for n in ns])
    reports.append(make_report("tail-ratio-bound", ns.size, margins.min(), "N=2..500"))

    odd = np.arange(3, 200, 2)
    margins = np.array([4.0 / (3.0 * (n + 1.0)) - constant_CbarN(int(n)) for n in odd])
    reports.append(make_report("paired-tail-ratio-bound", odd.size, margins.min(),
                               "odd N=3..199"))

    # the 0.005 is part of the statement, not a tolerance
    z3 = ratio_crossing_angle(3)
    reports.append(make_report("ratio-crossing-angle", 1, 0.005 - abs(z3 - 0.21), "N=3"))

    xs = np.linspace(math.pi / 6 / 400, math.pi / 6, 400)
    reports.append(check_sine_lower_bound(xs))
    reports.append(certify_pair_term_margin())
    return reports
