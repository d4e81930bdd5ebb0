import math

import numpy as np
import pytest

from hingedplate.certify import CLAIMS, IDENTITY, NON_STRICT, STRICT, make_report


@pytest.mark.parametrize("claim_id, kind, tolerance, value, passed, margin", [
    ("kernel-positive", STRICT, 0.0, 0.0, False, 0.0),
    ("kernel-positive", STRICT, 0.0, 5e-324, True, 5e-324),
    ("series-lower-envelope", STRICT, 1e-12, -1e-12, False, -1e-12),
    ("sine-chord-bound", NON_STRICT, 1e-15, -1e-15, True, -1e-15),
    ("sine-chord-bound", NON_STRICT, 1e-15, np.nextafter(-1e-15, -1.0), False,
     np.nextafter(-1e-15, -1.0)),
    ("polarized-mass", IDENTITY, 1e-10, 1e-10, True, -0.0),
    ("polarized-mass", IDENTITY, 1e-10, np.nextafter(1e-10, 1.0), False,
     -(np.nextafter(1e-10, 1.0) - 1e-10)),
    ("duality-inverse-eigenvalue", IDENTITY, 1e-8, 2e-16, True, 1e-8 - 2e-16),
    ("polarize-idempotent", IDENTITY, 0.0, 0.0, True, -0.0),
    ("polarize-idempotent", IDENTITY, 0.0, 5e-324, False, -5e-324),
], ids=["strict-zero", "strict-tiny", "strict-at-tolerance", "non-strict-at-tolerance",
        "non-strict-below", "identity-at-tolerance", "identity-above", "identity-error",
        "identity-exact", "identity-exact-missed"])
def test_each_kind_at_its_boundary(claim_id, kind, tolerance, value, passed, margin):
    assert CLAIMS[claim_id][:2] == (kind, tolerance)
    report = make_report(claim_id, 1, value, "res")
    assert report.passed is passed
    # repr tells -0.0 from 0.0: an exact identity at tolerance 0 reads -0.0
    assert repr(report.min_margin) == repr(float(margin))


def test_every_claim_has_a_kind_and_a_tolerance():
    assert len(CLAIMS) == 25
    for claim_id, (kind, tolerance, statement) in CLAIMS.items():
        assert kind in (STRICT, NON_STRICT, IDENTITY), claim_id
        assert isinstance(tolerance, float) and math.isfinite(tolerance) and tolerance >= 0.0
        assert statement


def test_a_report_takes_only_what_was_measured():
    report = make_report("kernel-mirror-pair", np.int64(200), np.float64(4.4e-16), "M=20")
    assert report.as_dict() == {
        "claim_id": "kernel-mirror-pair", "statement": CLAIMS["kernel-mirror-pair"][2],
        "probe_count": 200, "min_margin": 1e-12 - 4.4e-16, "resolution": "M=20",
        "pass": True}
    assert type(report.min_margin) is float and type(report.passed) is bool


def test_unregistered_claim_is_rejected():
    with pytest.raises(KeyError, match="unregistered claim id 'kernel-negative'"):
        make_report("kernel-negative", 1, 1.0, "res")
