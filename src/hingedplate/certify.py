"""Certification reports and the registry of numerically checked claims.

Each claim gets one report: the number of probes, the worst margin seen,
the resolution it was checked at, and a pass flag.  A claim only passes
when its margin clears the stated cutoff, so failures stay attributable to
the resolution recorded alongside them.
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


# claim_id -> the property certified; exactly one statement per claim.
CLAIM_STATEMENTS = {
    "kernel-positive":
        "discrete influence kernel strictly positive at interior probe pairs",
    "kernel-dx-positive-at-0":
        "x-slope of the kernel at the edge x=0 strictly positive for interior sources",
    "kernel-dx-negative-at-pi":
        "x-slope of the kernel at the edge x=pi strictly negative for interior sources",
    "kernel-dx-split-at-midline":
        "x-slope of the kernel on x=pi/2 negative for sources left of the midline, "
        "zero on it, positive right of it",
    "kernel-mirror-pair":
        "kernel invariant under reflecting source and target together across x=pi/2",
    "kernel-mirror-cross":
        "reflecting only the target equals reflecting only the source",
    "kernel-reflection-gap":
        "kernel dominates both single reflections strictly inside the left half",
    "solution-positivity":
        "solutions with nonnegative nonzero loads are strictly positive at interior nodes",
    "solution-edge-slopes":
        "positive solutions rise off the edge x=0 and fall into the edge x=pi",
    "series-positive":
        "sine series sum c_m sin(m z)/m^2 certified positive on (0, pi) "
        "for admissible decreasing coefficients",
    "series-alternating-negative":
        "alternating series certified negative on (0, pi) from its own fold on the DST-I grid",
    "series-lower-envelope":
        "series dominates c_1 (sin z - (pi^2/6 - 1)) pointwise",
    "tail-ratio-bound":
        "tail-to-head ratio of sum 1/m^2 stays below 1/N",
    "paired-tail-ratio-bound":
        "paired-tail ratio stays below 4/(3(N+1)) for odd N",
    "ratio-crossing-angle":
        "arcsin of the N=3 tail-to-head ratio lies within 0.005 of 0.21",
    "sine-chord-bound":
        "sin x >= (3/pi) x on (0, pi/6]",
    "pair-term-margin-positive":
        "consecutive-term margin of the sine series positive on (0, pi/(N+1))",
    "polarize-idempotent":
        "polarizing twice equals polarizing once, bit exact",
    "polarize-pair-sum":
        "value plus mirror value is preserved nodewise by polarization, bit exact",
    "polarized-product-identity":
        "polarizing the density-weighted field equals weighting the polarized field",
    "polarized-mass":
        "polarized two-material density keeps the exact total mass",
    "polarized-energy-identity":
        "weighted square integral unchanged by polarization",
    "polarization-form-inequality":
        "kernel quadratic form never decreases under polarization",
    "duality-inverse-eigenvalue":
        "kernel form quotient of the first eigenfunction equals 1/lambda_1",
    "duality-trial-bound":
        "no trial field pushes the kernel form quotient above 1/lambda_1",
}


def make_report(claim_id: str, probe_count: int, min_margin: float,
                resolution: str, passed: bool) -> CertificationReport:
    if claim_id not in CLAIM_STATEMENTS:
        raise KeyError(f"unregistered claim id {claim_id!r}")
    return CertificationReport(
        claim_id=claim_id,
        statement=CLAIM_STATEMENTS[claim_id],
        probe_count=int(probe_count),
        min_margin=float(min_margin),
        resolution=resolution,
        passed=bool(passed),
    )


SUITES = ("green", "series", "polarization", "all")


def run_suite(name: str, cfg) -> list:
    """All certification reports of one suite (or of every suite), the
    kernel and polarization suites sharing one `PlateSystem` of cfg."""
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
