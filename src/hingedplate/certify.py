"""Certification reports and the registry of numerically checked claims.

Each claim gets one report: the number of probes, the worst margin seen,
the resolution it was checked at, and a pass flag.  A suite reports only
the value it measured; the claim's kind and tolerance in `CLAIMS` turn it
into the margin and the pass flag, so failures stay attributable to the
resolution recorded alongside them.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .optimize import PlateSystem


@dataclass(frozen=True)
class CertificationReport:
    claim_id: str
    statement: str
    probe_count: int
    min_margin: float
    resolution: str
    passed: bool

    def as_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


STRICT, NON_STRICT, IDENTITY = "strict", "non_strict", "identity"

# claim_id -> (kind, tolerance, statement); the one place a claim's pass
# rule lives.  A strict claim's value passes when it is greater than
# -tolerance, a non-strict one's when it is at least -tolerance, and the
# margin is the value.  An identity's value is an error: it passes when it
# is at most the tolerance, and the margin is -(error - tolerance), which
# keeps an exact identity at tolerance 0 reading -0.0.  The compound
# kernel-dx-split-at-midline is strict on the least of its two side slopes
# and 1e-12 - |slope of a midline source|; a midline slope of exactly 1e-12
# therefore fails, where three separate tests would have passed it.
CLAIMS = {
    "kernel-positive": (STRICT, 0.0,
        "discrete influence kernel strictly positive at interior probe pairs"),
    "kernel-dx-positive-at-0": (STRICT, 0.0,
        "x-slope of the kernel at the edge x=0 strictly positive for interior sources"),
    "kernel-dx-negative-at-pi": (STRICT, 0.0,
        "x-slope of the kernel at the edge x=pi strictly negative for interior sources"),
    "kernel-dx-split-at-midline": (STRICT, 0.0,
        "x-slope of the kernel on x=pi/2 negative for sources left of the midline, zero "
        "on it, positive right of it"),
    "kernel-mirror-pair": (IDENTITY, 1e-12,
        "kernel invariant under reflecting source and target together across x=pi/2"),
    "kernel-mirror-cross": (IDENTITY, 1e-12,
        "reflecting only the target equals reflecting only the source"),
    "kernel-reflection-gap": (STRICT, 0.0,
        "kernel dominates both single reflections strictly inside the left half"),
    "solution-positivity": (STRICT, 0.0,
        "solutions with nonnegative nonzero loads are strictly positive at interior nodes"),
    "solution-edge-slopes": (STRICT, 0.0,
        "positive solutions rise off the edge x=0 and fall into the edge x=pi"),
    "series-positive": (STRICT, 0.0,
        "sine series sum c_m sin(m z)/m^2 certified positive on (0, pi) for admissible "
        "decreasing coefficients"),
    "series-alternating-negative": (STRICT, 0.0,
        "alternating series certified negative on (0, pi) from its own fold on the DST-I grid"),
    "series-lower-envelope": (STRICT, 1e-12,
        "series dominates c_1 (sin z - (pi^2/6 - 1)) pointwise"),
    "tail-ratio-bound": (STRICT, 0.0, "tail-to-head ratio of sum 1/m^2 stays below 1/N"),
    "paired-tail-ratio-bound": (STRICT, 0.0, "paired-tail ratio stays below 4/(3(N+1)) for odd N"),
    "ratio-crossing-angle": (STRICT, 0.0,
        "arcsin of the N=3 tail-to-head ratio lies within 0.005 of 0.21"),
    "sine-chord-bound": (NON_STRICT, 1e-15, "sin x >= (3/pi) x on (0, pi/6]"),
    "pair-term-margin-positive": (STRICT, 0.0,
        "consecutive-term margin of the sine series positive on (0, pi/(N+1))"),
    "polarize-idempotent": (IDENTITY, 0.0, "polarizing twice equals polarizing once, bit exact"),
    "polarize-pair-sum": (IDENTITY, 0.0,
        "value plus mirror value is preserved nodewise by polarization, bit exact"),
    "polarized-product-identity": (IDENTITY, 1e-12,
        "polarizing the density-weighted field equals weighting the polarized field"),
    "polarized-mass": (IDENTITY, 1e-10,
        "polarized two-material density keeps the exact total mass"),
    "polarized-energy-identity": (IDENTITY, 1e-12,
        "weighted square integral unchanged by polarization"),
    "polarization-form-inequality": (NON_STRICT, 1e-10,
        "kernel quadratic form never decreases under polarization"),
    "duality-inverse-eigenvalue": (IDENTITY, 1e-8,
        "kernel form quotient of the first eigenfunction equals 1/lambda_1"),
    "duality-trial-bound": (IDENTITY, 1e-9,
        "no trial field pushes the kernel form quotient above 1/lambda_1"),
}


def make_report(claim_id: str, probe_count: int, value: float,
                resolution: str) -> CertificationReport:
    """The report of one claim from its measured value: the worst value for
    an inequality, the largest error for an identity."""
    if claim_id not in CLAIMS:
        raise KeyError(f"unregistered claim id {claim_id!r}")
    kind, tolerance, statement = CLAIMS[claim_id]
    value = float(value)
    if kind == IDENTITY:
        margin, passed = -(value - tolerance), value <= tolerance
    else:
        margin = value
        passed = value > -tolerance if kind == STRICT else value >= -tolerance
    return CertificationReport(
        claim_id=claim_id,
        statement=statement,
        probe_count=int(probe_count),
        min_margin=margin,
        resolution=resolution,
        passed=passed,
    )


SUITES = ("green", "series", "polarization", "all")


def run_suite(name: str, cfg) -> list:
    """All certification reports of one suite (or of every suite), the
    kernel and polarization suites sharing one `PlateSystem` of cfg, whose
    build raises SolverError on an operator that rounding has made
    indefinite (a plate too thin for double precision)."""
    from . import green, series, polarization

    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if name == "series":
        return series.certify_series()
    system = PlateSystem(cfg)
    if name == "green":
        return green.certify_green(system)
    if name == "polarization":
        return polarization.certify_polarization(system) + polarization.certify_duality(system)
    return (green.certify_green(system)
            + series.certify_series()
            + polarization.certify_polarization(system)
            + polarization.certify_duality(system))
