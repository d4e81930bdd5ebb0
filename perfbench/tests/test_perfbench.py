"""Tests of the benchmark itself, on a tiny config (8 modes x 6 profiles, 32x16 nodes).

Run from the repository root:  python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from probes import PER_LAYER, SpanRecorder  # noqa: E402
from workloads import Workload  # noqa: E402

SEED = 7
TINY = Workload(
    config={"n_modes_x": 8, "n_basis_y": 6, "n_quad_x": 32, "n_quad_y": 16},
    commands=(("solve",),
              ("optimize", "--starts", "4"),
              ("certify", "--suite", "polarization")),
    solve_lambda=0.9666726715531933,
    optimize_lambda=0.6551695597754231,
    # on this coarse grid the four starts settle on fixed points 1.44e-5 apart
    spread_max=1.44e-5,
)


def _run(tmp_path, trace):
    # one second of iterations still runs the minimum of two
    return run.run_workload("tiny", TINY, SEED, 1.0, trace, tmp_path, ROOT / "src")


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"), False)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("traced"), True)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_end_to_end_metric_prints_with_its_unit(untraced, capsys):
    assert _declared("end_to_end") == run.END_TO_END
    run.print_report(untraced)
    lines = capsys.readouterr().out.splitlines()
    assert set(untraced["metrics"]) == set(run.END_TO_END)
    for name, unit in {**run.END_TO_END, **run.UNBOUNDED}.items():
        assert untraced["summary"][name]["unit"] == unit
        assert untraced["summary"][name]["value"] > 0.0, name
        assert any(ln.split()[:1] == [name] and f" {unit} " in ln for ln in lines), name
    assert any(ln.startswith("failure_ratio ") for ln in lines)
    assert any(ln.startswith("env ") for ln in lines)


def test_every_per_layer_metric_appears_in_traced_output(traced):
    assert _declared("per_layer") == PER_LAYER
    assert set(traced["metrics"]) == set(PER_LAYER)
    for name, unit in PER_LAYER.items():
        assert traced["metrics"][name]["unit"] == unit
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert layers["optimize.minimize.calls"] == 4
    assert layers["certify.claims"] == layers["certify.claims_passed"] > 0
    assert layers["eigensolve.solve_first.calls"] > 0
    assert layers["io.bytes_written"] > 0


def test_traced_and_untraced_results_are_byte_identical(traced, untraced):
    flags = [s["traced"] for s in traced["iterations"]]
    assert False in flags and True in flags
    for cmd in ("solve", "optimize", "certify"):
        digests = {s[f"{cmd}.digest"] for s in traced["iterations"] + untraced["iterations"]}
        assert len(digests) == 1, cmd


def test_failure_ratio_is_zero_at_this_seed(untraced, traced):
    for record in (untraced, traced):
        assert record["attempted"] >= 2 * len(TINY.commands)
        assert record["failed"] == 0, record["problems"]
        assert record["failure_ratio"] == 0.0


def test_a_wrong_reference_counts_as_a_failure(tmp_path):
    wrong = Workload(config=TINY.config, commands=TINY.commands[:1],
                     solve_lambda=TINY.solve_lambda * (1 + 1e-9),
                     optimize_lambda=TINY.optimize_lambda)
    record = run.run_workload("tiny", wrong, SEED, 1.0, False, tmp_path, ROOT / "src")
    assert record["failed"] == record["attempted"] == 2


def test_self_time_subtracts_the_union_of_child_spans():
    rec = SpanRecorder(iteration=0)
    rec.spans = [
        {"id": 1, "name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 2, "name": "b", "start": 1.0, "end": 4.0, "parent": 1},
        {"id": 3, "name": "b", "start": 3.0, "end": 6.0, "parent": 1},   # overlaps 2
        {"id": 4, "name": "c", "start": 9.0, "end": 12.0, "parent": 1},  # runs past 1
    ]
    assert rec.self_times() == {1: pytest.approx(4.0), 2: 3.0, 3: 3.0, 4: 3.0}
