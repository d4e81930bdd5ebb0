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
    "power-1": lambda m: m ** -1.0,
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
    terms: int


def edge_slope_series(seq: CoefficientSequence, z, truncation: int = None) -> SeriesValue:
    """Partial sum of sum_m c_m sin(m z) / m^2 with its tail bound.

    Because the coefficients decrease, everything beyond term L is bounded
    by c_L * sum_{m>L} 1/m^2 regardless of z.
    """
    L = len(seq) if truncation is None else int(truncation)
    if not 1 <= L <= len(seq):
        raise ValueError(f"truncation {L} outside 1..{len(seq)}")
    m = np.arange(1, L + 1, dtype=float)
    coeff = seq.values[:L] / m ** 2
    value = float(np.sum(coeff * np.sin(m * float(z))))
    return SeriesValue(value=value,
                       tail_bound=float(seq.values[L - 1]) * sum_inverse_squares_tail(L),
                       terms=L)


def alternating_edge_slope_series(seq: CoefficientSequence, z,
                                  truncation: int = None) -> SeriesValue:
    """Partial sum of sum_m (-1)^m c_m sin(m z) / m^2 with its tail bound."""
    L = len(seq) if truncation is None else int(truncation)
    if not 1 <= L <= len(seq):
        raise ValueError(f"truncation {L} outside 1..{len(seq)}")
    m = np.arange(1, L + 1, dtype=float)
    coeff = ((-1.0) ** m) * seq.values[:L] / m ** 2
    value = float(np.sum(coeff * np.sin(m * float(z))))
    return SeriesValue(value=value,
                       tail_bound=float(seq.values[L - 1]) * sum_inverse_squares_tail(L),
                       terms=L)


def _series_values_on_grid(seq: CoefficientSequence, zs: np.ndarray) -> np.ndarray:
    L = len(seq)
    m = np.arange(1, L + 1, dtype=float)
    coeff = seq.values / m ** 2
    out = np.zeros(zs.size)
    for lo in range(0, L, 2048):                    # chunked outer product
        hi = min(lo + 2048, L)
        out += np.sin(np.outer(zs, m[lo:hi])) @ coeff[lo:hi]
    return out


def _tail_bound(seq: CoefficientSequence) -> float:
    return float(seq.values[-1]) * sum_inverse_squares_tail(len(seq))


def _positive_margin(seq: CoefficientSequence, vals: np.ndarray) -> float:
    """Smallest grid value of the series less the tail bound."""
    return float(vals.min() - _tail_bound(seq))


def certify_S1_positive(seq: CoefficientSequence, zs: np.ndarray):
    """Positivity of the edge slope series on a z grid, tail bound included."""
    zs = np.asarray(zs, dtype=float)
    margin = _positive_margin(seq, _series_values_on_grid(seq, zs))
    return make_report(
        "series-positive", zs.size, margin,
        f"family={seq.tag}, terms={len(seq)}", bool(margin > 0.0),
    )


def certify_S2_negative(seq: CoefficientSequence, zs: np.ndarray):
    """Negativity of the alternating series, via the half-turn identity.

    The alternating series at z equals minus the plain series at pi - z, so
    its negativity is the same certification run on the reflected grid.
    """
    zs = np.asarray(zs, dtype=float)
    report = certify_S1_positive(seq, np.pi - zs)
    return make_report(
        "series-alternating-negative", report.probe_count, report.min_margin,
        f"family={seq.tag}, terms={len(seq)}", report.passed,
    )


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
    margin = float(np.min(np.sin(xs) - (3.0 / math.pi) * xs))
    return make_report(
        "sine-chord-bound", xs.size, margin, f"grid={xs.size}",
        bool(margin >= -1e-15),
    )


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


def certify_pair_term_margin(n_max: int = 50, grid_size: int = 200):
    """Positivity of the margin for every m = 3..N on (0, pi/(N+1))."""
    eps = math.pi / (n_max + 1) / (grid_size + 1)
    zs = np.linspace(eps, math.pi / (n_max + 1) - eps, grid_size)
    worst = np.inf
    for m in range(3, n_max + 1):
        worst = min(worst, float(np.min(pair_term_margin(m, zs))))
    return make_report(
        "pair-term-margin-positive", (n_max - 2) * grid_size, worst,
        f"N={n_max}, grid={grid_size}", bool(worst > 0.0),
    )


def _envelope_margin(seq: CoefficientSequence, zs: np.ndarray, vals: np.ndarray) -> float:
    """Smallest excess of the series values at zs, less the tail bound, over
    the envelope c_1 (sin z - (pi^2/6 - 1))."""
    envelope = seq.values[0] * (np.sin(zs) - (PI2_OVER_6 - 1.0))
    return float(np.min(vals - _tail_bound(seq) - envelope))


def certify_lower_envelope(seq: CoefficientSequence, zs: np.ndarray):
    """Series dominates c_1 (sin z - (pi^2/6 - 1)), certified with the tail."""
    zs = np.asarray(zs, dtype=float)
    margin = _envelope_margin(seq, zs, _series_values_on_grid(seq, zs))
    return make_report(
        "series-lower-envelope", zs.size, margin,
        f"family={seq.tag}, terms={len(seq)}", bool(margin > -1e-12),
    )


def certify_series(cfg=None, *, grid_points: int = 999, terms: int = 20000,
                   families=DEFAULT_FAMILIES) -> list:
    """Full series suite: sign certifications plus the elementary bounds.

    Each family is evaluated once, on zs.  Positivity and the lower envelope
    use those values; so does the alternating series, whose value at z is
    minus the plain series at pi - z: zs is mirror symmetric, so its values
    at pi - zs are the values at zs in reverse order.
    """
    zs = np.pi * np.arange(1, grid_points + 1) / (grid_points + 1)
    reports = []
    worst_pos, worst_neg, worst_env = np.inf, np.inf, np.inf
    for tag in families:
        seq = sequence_family(tag, terms)
        vals = _series_values_on_grid(seq, zs)
        worst_pos = min(worst_pos, _positive_margin(seq, vals))
        worst_neg = min(worst_neg, _positive_margin(seq, vals[::-1]))
        worst_env = min(worst_env, _envelope_margin(seq, zs, vals))
    res = f"families={len(families)}, terms={terms}, grid={grid_points}"
    reports.append(make_report("series-positive", len(families) * grid_points,
                               worst_pos, res, bool(worst_pos > 0.0)))
    reports.append(make_report("series-alternating-negative", len(families) * grid_points,
                               worst_neg, res, bool(worst_neg > 0.0)))
    reports.append(make_report("series-lower-envelope", len(families) * grid_points,
                               worst_env, res, bool(worst_env > -1e-12)))

    ns = np.arange(2, 501)
    margins = np.array([1.0 / n - constant_CN(n) for n in ns])
    reports.append(make_report("tail-ratio-bound", ns.size, float(margins.min()),
                               "N=2..500", bool(margins.min() > 0.0)))

    odd = np.arange(3, 200, 2)
    margins = np.array([4.0 / (3.0 * (n + 1.0)) - constant_CbarN(int(n)) for n in odd])
    reports.append(make_report("paired-tail-ratio-bound", odd.size, float(margins.min()),
                               "odd N=3..199", bool(margins.min() > 0.0)))

    z3 = ratio_crossing_angle(3)
    reports.append(make_report("ratio-crossing-angle", 1, 0.005 - abs(z3 - 0.21),
                               "N=3", bool(abs(z3 - 0.21) < 0.005)))

    xs = np.linspace(math.pi / 6 / 400, math.pi / 6, 400)
    reports.append(check_sine_lower_bound(xs))
    reports.append(certify_pair_term_margin())
    return reports
