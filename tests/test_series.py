import math

import numpy as np
import pytest

from hingedplate import (
    CoefficientSequence,
    alternating_edge_slope_series,
    certify_S1_positive,
    certify_S2_negative,
    check_sine_lower_bound,
    constant_CN,
    constant_CbarN,
    edge_slope_series,
    pair_term_margin,
    ratio_crossing_angle,
    sequence_family,
)
from hingedplate.series import (
    DEFAULT_FAMILIES,
    certify_lower_envelope,
    certify_pair_term_margin,
    certify_series,
    sum_inverse_squares_tail,
)


def test_sequence_families_admissible():
    assert len(DEFAULT_FAMILIES) == 6
    for tag in DEFAULT_FAMILIES:
        seq = sequence_family(tag, 200)
        assert np.all(seq.values > 0)
        assert np.all(np.diff(seq.values) < 0)


def test_sequence_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        CoefficientSequence(values=np.array([1.0, 1.0, 0.5]), tag="flat")
    with pytest.raises(ValueError, match="nonpositive"):
        CoefficientSequence(values=np.array([1.0, -0.5]), tag="neg")
    with pytest.raises(KeyError):
        sequence_family("nope", 10)


def test_tail_of_inverse_squares():
    # brute force tail oracle
    brute = float(np.sum(1.0 / np.arange(51, 2_000_001, dtype=float) ** 2))
    assert sum_inverse_squares_tail(50) == pytest.approx(brute, abs=1e-6)
    assert sum_inverse_squares_tail(0) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)


def test_series_closed_form_quarter_turn():
    # for c_m = 1/m the series at pi/2 sums to pi^3/32:
    # only odd m contribute, with alternating signs and weight 1/m^3
    brute = sum((-1.0) ** k / (2 * k + 1) ** 3 for k in range(200_000))
    assert brute == pytest.approx(math.pi ** 3 / 32, abs=1e-11)
    seq = sequence_family("inverse", 20000)
    sv = edge_slope_series(seq, math.pi / 2)
    assert sv.value == pytest.approx(math.pi ** 3 / 32, abs=1e-10)


def test_series_vanishes_at_endpoints():
    for tag in ("inverse", "geometric"):
        seq = sequence_family(tag, 500)
        assert edge_slope_series(seq, 0.0).value == 0.0
        assert alternating_edge_slope_series(seq, 0.0).value == 0.0
        assert abs(edge_slope_series(seq, math.pi).value) < 1e-11


def test_half_turn_identity():
    # alternating series at z equals minus the plain series at pi - z
    for tag in DEFAULT_FAMILIES:
        seq = sequence_family(tag, 1500)
        for z in (0.3, 1.0, math.pi / 2, 2.5, 3.0):
            lhs = alternating_edge_slope_series(seq, z).value
            rhs = -edge_slope_series(seq, math.pi - z).value
            assert lhs == pytest.approx(rhs, abs=1e-14)


def test_tail_bound_sound():
    # doubling the truncation moves the value by less than the claimed bound
    for tag in DEFAULT_FAMILIES:
        seq = sequence_family(tag, 1000)
        for z in (0.05, 1.3, 2.9):
            v_half = edge_slope_series(seq, z, truncation=500)
            v_full = edge_slope_series(seq, z, truncation=1000)
            assert abs(v_full.value - v_half.value) <= v_half.tail_bound


def test_certifications_pass_for_all_families():
    zs = math.pi * np.arange(1, 1000) / 1000.0
    for tag in DEFAULT_FAMILIES:
        seq = sequence_family(tag, 20000)
        rep = certify_S1_positive(seq, zs)
        assert rep.passed and rep.min_margin > 0.0
        rep2 = certify_S2_negative(seq, zs)
        assert rep2.passed and rep2.min_margin > 0.0
        rep3 = certify_lower_envelope(seq, zs)
        assert rep3.passed


def test_certification_failure_is_reported_not_raised():
    # truncating at 5 terms leaves a tail bound that swamps the value near 0
    seq = sequence_family("inverse", 5)
    zs = np.array([1e-3, 5e-3])
    rep = certify_S1_positive(seq, zs)
    assert not rep.passed
    assert rep.min_margin < 0.0


def test_tail_to_head_ratio_bound():
    # C_N < 1/N for every N in 2..500, and the ratio decreases
    values = [constant_CN(n) for n in range(2, 501)]
    assert all(c < 1.0 / n for n, c in zip(range(2, 501), values))
    assert all(b < a for a, b in zip(values, values[1:]))
    # spot value against a direct computation
    head = sum(1.0 / m ** 2 for m in range(1, 4))
    tail = math.pi ** 2 / 6 - head
    assert constant_CN(3) == pytest.approx(tail / head, rel=1e-13)


def test_paired_tail_ratio_bound():
    for n in range(3, 200, 2):
        assert constant_CbarN(n) < 4.0 / (3.0 * (n + 1.0))
    with pytest.raises(ValueError):
        constant_CbarN(4)
    with pytest.raises(ValueError):
        constant_CbarN(1)


def test_ratio_crossing_angle_near_021():
    z3 = ratio_crossing_angle(3)
    assert abs(z3 - 0.21) < 0.005
    assert z3 < math.pi / 5


def test_sine_chord_bound():
    xs = np.linspace(1e-4, math.pi / 6, 500)
    rep = check_sine_lower_bound(xs)
    assert rep.passed
    # endpoint is the equality case
    assert math.sin(math.pi / 6) == pytest.approx((3 / math.pi) * (math.pi / 6), abs=1e-15)
    assert math.sin(0.1) >= (3 / math.pi) * 0.1
    assert math.sin(0.4) >= (3 / math.pi) * 0.4
    with pytest.raises(ValueError):
        check_sine_lower_bound(np.array([0.6]))  # outside (0, pi/6]


def test_pair_term_margin_values():
    assert pair_term_margin(3, 0.0) == 0.0
    for m in range(3, 51):
        z = math.pi / (m + 1.0)
        assert pair_term_margin(m, z) > 0.0
    with pytest.raises(ValueError):
        pair_term_margin(2, 0.1)


def test_pair_term_margin_certification():
    rep = certify_pair_term_margin(n_max=50, grid_size=200)
    assert rep.passed and rep.min_margin > 0.0


def test_certify_series_bundle(default_cfg):
    reports = certify_series(default_cfg)
    ids = [r.claim_id for r in reports]
    assert len(ids) == len(set(ids))
    assert all(r.passed for r in reports)
    assert {"series-positive", "series-alternating-negative", "tail-ratio-bound",
            "paired-tail-ratio-bound", "ratio-crossing-angle", "sine-chord-bound",
            "pair-term-margin-positive", "series-lower-envelope"} <= set(ids)


def test_certify_series_evaluates_each_family_once(monkeypatch):
    # on zs only: positivity, the lower envelope and the alternating series
    # (through pi - zs, which is zs reversed) share the values
    import hingedplate.series

    calls = []
    evaluate = hingedplate.series._series_values_on_grid

    def counting(seq, zs):
        calls.append(seq.tag)
        return evaluate(seq, zs)

    monkeypatch.setattr(hingedplate.series, "_series_values_on_grid", counting)
    families = ("inverse", "geometric", "power-2")
    reports = certify_series(grid_points=99, terms=500, families=families)
    assert all(r.passed for r in reports)
    assert sorted(calls) == sorted(families)
