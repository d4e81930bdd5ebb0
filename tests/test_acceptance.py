"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure is the corresponding FAIL.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hingedplate import (
    PlateConfig,
    PlateSystem,
    midline_slope_check,
    minimize,
    random_admissible_density,
    sequence_family,
    strip_density,
    uniform_density,
)
from hingedplate.cli import main
from hingedplate.green import certify_green, certify_positivity_preserving
from hingedplate.polarization import certify_duality, certify_polarization
from hingedplate.series import certify_series, edge_slope_series, pair_term_margin

# Eq-parameter material values at a quadrature fine enough that the
# discrete fixed-point spread sits well below the 1e-8 agreement bar.
AGREEMENT_CFG = PlateConfig(n_quad_x=512, n_quad_y=128)

SWEEP_CFGS = [
    PlateConfig(),
    PlateConfig(sigma=0.0, n_modes_x=14, n_basis_y=8, n_quad_x=64, n_quad_y=32),
    PlateConfig(sigma=0.35, ell=math.pi / 8, alpha=0.7, beta=2.0,
                n_modes_x=14, n_basis_y=8, n_quad_x=64, n_quad_y=32),
    PlateConfig(ell=1.0, alpha=0.3, beta=1.6,
                n_modes_x=12, n_basis_y=10, n_quad_x=64, n_quad_y=48),
    PlateConfig(ell=math.pi / 150, n_modes_x=14, n_basis_y=4,
                n_quad_x=96, n_quad_y=24),
]


def _four_starts(system, seed):
    rng = np.random.default_rng(seed)
    return [
        ("uniform", uniform_density(system)),
        ("left", strip_density(system, "left")),
        ("right", strip_density(system, "right")),
        ("random", random_admissible_density(system, rng)),
    ]


@pytest.fixture(scope="module")
def optimization_batch():
    """Six configurations x four starts, shared by criteria 1, 2, 3 and 9."""
    batch = []
    for k, cfg in enumerate(SWEEP_CFGS + [AGREEMENT_CFG]):
        system = PlateSystem(cfg)
        runs = []
        for name, p0 in _four_starts(system, seed=100 + k):
            t0 = time.monotonic()
            trace = minimize(system, p0)
            runs.append((name, trace, time.monotonic() - t0))
        batch.append((cfg, system, runs))
    return batch


def test_criterion_1_monotone_traces(optimization_batch):
    n_runs = 0
    for cfg, _, runs in optimization_batch:
        for name, trace, seconds in runs:
            lams = [r.lambda1 for r in trace.records]
            assert len(lams) >= 2
            for a, b in zip(lams, lams[1:]):
                assert b <= a * (1.0 + 1e-10), (cfg, name)
            assert seconds <= 120.0
            n_runs += 1
    assert n_runs == 24
    print(f"\nCRITERION 1 PASS: {n_runs} runs (6 configs x 4 starts) "
          f"monotone at 1e-10, all within the runtime bound")


def test_criterion_2_multistart_agreement_and_symmetry(optimization_batch):
    cfg, system, runs = optimization_batch[-1]
    assert cfg is AGREEMENT_CFG
    lams = [trace.final_lambda for _, trace, _ in runs]
    spread = (max(lams) - min(lams)) / min(lams)
    assert spread <= 1e-8, f"multistart spread {spread:.3e}"
    w_node = system.grid.weights.max()
    for name, trace, _ in runs:
        assign = trace.final_density.alpha_assignment()
        asym_w = float(np.sum(system.grid.weights[assign != assign[::-1, :]]))
        assert asym_w <= 8.0 * w_node, (name, asym_w)
        heavy_x = np.repeat(system.grid.nodes_x,
                            system.grid.shape[1])[~assign.ravel()]
        assert heavy_x.min() < math.pi / 2 < heavy_x.max()
    print(f"\nCRITERION 2 PASS: four starts agree to {spread:.2e} (<= 1e-8); "
          f"final densities mirror-symmetric within one cell, heavy region "
          f"straddles x = pi/2")


def test_criterion_3_bang_bang_structure(optimization_batch):
    checked = 0
    for cfg, system, runs in optimization_batch:
        target = system.cfg.sublevel_fraction * system.cfg.target_mass
        for name, trace, _ in runs:
            density = trace.final_density
            assert density.gray_nodes() <= 1, (cfg, name)
            assert abs(density.sublevel_measure() - target) \
                <= system.grid.weights.max()
            assert density.mass == pytest.approx(system.cfg.target_mass, rel=1e-10)
            checked += 1
    print(f"\nCRITERION 3 PASS: {checked} converged densities two-valued "
          f"up to one gray node, sublevel measure on target within one node")


def test_criterion_4_green_certifications():
    reports = certify_green(PlateSystem(PlateConfig()))
    by_id = {r.claim_id: r for r in reports}
    assert by_id["kernel-positive"].probe_count >= 200
    for claim in ("kernel-positive", "kernel-dx-positive-at-0",
                  "kernel-dx-negative-at-pi", "kernel-dx-split-at-midline",
                  "kernel-mirror-pair", "kernel-mirror-cross",
                  "kernel-reflection-gap"):
        assert by_id[claim].passed, (claim, by_id[claim].min_margin)
    assert by_id["kernel-mirror-pair"].min_margin >= 0.0       # 1e-12 identity
    assert by_id["kernel-reflection-gap"].min_margin > 0.0     # strict
    print("\nCRITERION 4 PASS: kernel positivity, edge-slope signs, mirror "
          "identities (1e-12) and strict reflection gap certified at defaults")


def test_criterion_5_positivity_preserving():
    reports = certify_positivity_preserving(PlateSystem(PlateConfig()))
    by_id = {r.claim_id: r for r in reports}
    assert by_id["solution-positivity"].passed
    assert by_id["solution-edge-slopes"].passed
    print("\nCRITERION 5 PASS: 50 nonnegative loads give strictly positive "
          "solutions with strict edge slopes at every y node")


def test_criterion_6_duality():
    reports = certify_duality(PlateSystem(PlateConfig()))
    by_id = {r.claim_id: r for r in reports}
    rep = by_id["duality-inverse-eigenvalue"]
    assert rep.probe_count >= 10
    assert rep.passed, rep.min_margin        # |quotient * lambda1 - 1| <= 1e-8
    assert by_id["duality-trial-bound"].passed
    print(f"\nCRITERION 6 PASS: quotient x lambda1 = 1 within 1e-8 on "
          f"{rep.probe_count} densities; 100 trial fields below 1/lambda1 + 1e-9")


def test_criterion_7_series_suite():
    reports = certify_series()
    by_id = {r.claim_id: r for r in reports}
    for claim in ("series-positive", "series-alternating-negative",
                  "tail-ratio-bound", "paired-tail-ratio-bound",
                  "ratio-crossing-angle", "sine-chord-bound"):
        assert by_id[claim].passed, (claim, by_id[claim].min_margin)
    assert by_id["series-positive"].probe_count == 6 * 999
    seq = sequence_family("inverse", 20000)
    closed = edge_slope_series(seq, math.pi / 2)
    assert abs(closed.value - math.pi ** 3 / 32) <= 1e-10
    print("\nCRITERION 7 PASS: sign certifications on 999-point grids for 6 "
          "sequences, ratio bounds for N <= 500 / odd N <= 199, crossing angle "
          "0.21 +- 0.005, chord bound, closed form pi^3/32 within 1e-10")


def test_criterion_8_appendix_suite():
    n_max = 50
    zs = np.linspace(math.pi / (n_max + 1) / 201, math.pi / (n_max + 1), 200,
                     endpoint=False)
    worst = min(float(np.min(pair_term_margin(m, zs))) for m in range(3, n_max + 1))
    assert worst > 0.0
    assert all(pair_term_margin(m, 0.0) == 0.0 for m in range(3, n_max + 1))
    print(f"\nCRITERION 8 PASS: pair-term margin positive for m = 3..{n_max} "
          f"on 200-point grids (worst {worst:.2e}), exactly zero at z = 0")


def test_criterion_9_polarization_suite(optimization_batch):
    reports = certify_polarization(PlateSystem(PlateConfig()))
    by_id = {r.claim_id: r for r in reports}
    assert by_id["polarize-idempotent"].min_margin == 0.0          # bit exact
    assert by_id["polarize-pair-sum"].min_margin == 0.0            # bit exact
    assert by_id["polarized-product-identity"].passed
    assert by_id["polarized-energy-identity"].passed
    assert by_id["polarized-mass"].passed
    assert by_id["polarization-form-inequality"].min_margin >= -1e-10
    # converged optimal pairs fall into exactly one mirror alternative with a
    # consistent midline slope sign (classify/check raise otherwise)
    verdicts = []
    for cfg, system, runs in optimization_batch[:2]:
        for name, trace, _ in runs:
            report = midline_slope_check(trace.final_eigenpair.u, system)
            verdicts.append(report.verdict)
    assert len(set(verdicts)) >= 1
    print(f"\nCRITERION 9 PASS: identities bit-exact, form inequality >= -1e-10 "
          f"on 100 fields, {len(verdicts)} optimal pairs classified "
          f"({sorted(set(verdicts))}) with consistent midline slopes")


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"n_modes_x": 8, "n_basis_y": 6, "n_quad_x": 32, "n_quad_y": 16}))

    def run_all(root: Path):
        assert main(["solve", "--config", str(cfg_path),
                     "--out", str(root / "solve")]) == 0
        assert main(["optimize", "--config", str(cfg_path), "--out",
                     str(root / "opt"), "--starts", "3", "--seed", "7"]) == 0
        assert main(["certify", "--suite", "polarization", "--config",
                     str(cfg_path), "--out", str(root / "cert")]) == 0

    def collect(root: Path) -> dict:
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "manifest.jsonl"}

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")
    a, b = collect(tmp_path / "a"), collect(tmp_path / "b")
    assert a.keys() == b.keys()
    diff = [k for k in a if a[k] != b[k]]
    assert not diff, f"nondeterministic outputs: {diff}"
    print(f"\nCRITERION 10 PASS: {len(a)} result files byte-identical across "
          f"repeated solve / optimize / certify runs")
