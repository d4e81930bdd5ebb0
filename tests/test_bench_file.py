import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"
_spec = importlib.util.spec_from_file_location("bench_file", _TOOL)
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)


def _run(seed, optimize_s, sweeps_per_s, failed=0):
    return {"workload": "w", "trace": 0, "seed": seed, "seconds": 60.0,
            "attempted": 10, "failed": failed,
            "environment": {"nproc": 2, "numpy": "2.4"},
            "summary": {"optimize_s": {"value": optimize_s, "unit": "s"},
                        "sweeps_per_s": {"value": sweeps_per_s, "unit": "1/s"}}}


def test_reduces_pairs_per_metric_in_its_direction(tmp_path):
    parent = [_run(s, 1.0 + 0.1 * s, 10.0) for s in range(5)]
    change = [_run(s, 0.5 + 0.1 * s, 10.0 - (s == 0), failed=s == 4) for s in range(5)]
    for k, run in enumerate(change):  # runs load from a directory or the file
        (tmp_path / f"r{k}").mkdir()
        (tmp_path / f"r{k}" / "result.json").write_text(json.dumps(run))
    assert bench_file.load_run(tmp_path / "r0") == change[0]
    assert bench_file.load_run(tmp_path / "r1" / "result.json") == change[1]

    bench = bench_file.reduce_runs("t", parent, change)
    w = bench["workloads"]["w"]
    assert w["seeds"] == [0, 1, 2, 3, 4]
    assert w["failed"] == {"parent": 0, "change": 1}
    opt = w["metrics"]["optimize_s"]
    assert opt["better"] == "lower" and opt["pairs_better"] == 5 and opt["pairs"] == 5
    assert opt["parent"] == pytest.approx({"median": 1.2, "q1": 1.1, "q3": 1.3, "n": 5})
    assert opt["change"]["median"] == pytest.approx(0.7)
    sweeps = w["metrics"]["sweeps_per_s"]
    assert sweeps["better"] == "higher" and sweeps["pairs_better"] == 0
    assert bench["environment"] == {"nproc": 2, "numpy": "2.4"}
    assert bench["environment_differs"] == []


def test_rejects_runs_without_a_partner():
    with pytest.raises(ValueError, match="without a partner"):
        bench_file.reduce_runs("t", [_run(0, 1.0, 1.0), _run(1, 1.0, 1.0)],
                               [_run(0, 1.0, 1.0), _run(2, 1.0, 1.0)])
    with pytest.raises(ValueError, match="two parent runs"):
        bench_file.reduce_runs("t", [_run(0, 1.0, 1.0)] * 2, [_run(0, 1.0, 1.0)])
