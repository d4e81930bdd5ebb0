import importlib.util
import json
from pathlib import Path

import pytest

from hingedplate import load_config

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


FILES = {"solve/eigenpair.json": b'{"lambda1": 1.0}\n',
         "optimize/uniform/trace.csv": b"iter,lambda1\r\n0,1.0\r\n",
         "manifest.jsonl": b'{"wall_clock_seconds": 0.1}\n'}


def test_identical_trees_have_no_differences(tmp_path):
    old = _tree(tmp_path / "old", FILES)
    # manifests carry wall-clock time and are skipped
    new = _tree(tmp_path / "new", {**FILES, "manifest.jsonl": b'{"wall_clock_seconds": 0.2}\n'})
    assert compare_outputs.compare_dirs(old, new) == []


def test_one_changed_byte_is_a_difference(tmp_path):
    old = _tree(tmp_path / "old", FILES)
    new = _tree(tmp_path / "new", {**FILES, "optimize/uniform/trace.csv":
                                   b"iter,lambda1\r\n0,1.1\r\n"})
    assert compare_outputs.compare_dirs(old, new) == [
        "differs: optimize/uniform/trace.csv (max abs diff 1.000e-01, max rel diff 9.091e-02; "
        "header matches, row count matches, non-numeric cells match)"]


def test_missing_file_is_a_difference(tmp_path):
    old = _tree(tmp_path / "old", FILES)
    new = _tree(tmp_path / "new", {k: v for k, v in FILES.items() if not k.startswith("solve")})
    assert compare_outputs.compare_dirs(old, new) == ["only in old: solve/eigenpair.json"]
    assert compare_outputs.compare_dirs(new, old) == ["only in new: solve/eigenpair.json"]


DEMOS = {"solve_uniform_plate.py": (0, b"lambda1 1.0\nresidual 1e-13\n"),
         "series_certification.py": (0, b"ok\n")}


def test_identical_demo_outputs_have_no_differences():
    assert compare_outputs.compare_runs(DEMOS, dict(DEMOS), "demo") == []


def test_one_changed_demo_line_is_a_difference():
    new = {**DEMOS, "solve_uniform_plate.py": (0, b"lambda1 1.0\nresidual 2e-13\n")}
    assert compare_outputs.compare_runs(DEMOS, new, "demo") == [
        "demo stdout differs: solve_uniform_plate.py"]


def test_a_changed_command_stdout_is_a_difference(tmp_path):
    # the output files and exit codes agree; only a printed PASS line moved
    old_out = _tree(tmp_path / "old", FILES)
    new_out = _tree(tmp_path / "new", FILES)
    old = {"solve": (0, b"lambda1 = 1\n"),
           "certify-all": (0, b"[PASS] kernel-positive: margin 5.000e-01 (M=20)\n")}
    new = {**old, "certify-all": (0, b"[PASS] kernel-positive: margin 6.250e-01 (M=20)\n")}
    assert compare_outputs.compare_dirs(old_out, new_out) == []
    assert compare_outputs.compare_runs(old, new, "command") == [
        "command stdout differs: certify-all"]
    assert compare_outputs.compare_runs(old, {**new, "solve": (3, b"")}, "command") == [
        "command stdout differs: certify-all", "exit code of command solve: 0 -> 3",
        "command stdout differs: solve"]


REPORT = {"claim_id": "kernel-positive", "min_margin": 0.5, "pass": True, "probe_count": 200}


def _json(doc) -> bytes:
    return json.dumps(doc).encode()


def test_a_changed_json_number_reports_its_size(tmp_path):
    old = _tree(tmp_path / "old", {**FILES, "certify/certify_all.json": _json([REPORT])})
    new = _tree(tmp_path / "new", {**FILES, "certify/certify_all.json":
                                   _json([{**REPORT, "min_margin": 0.625}])})
    assert compare_outputs.compare_dirs(old, new) == [
        "differs: certify/certify_all.json (max abs diff 1.250e-01, max rel diff 2.000e-01; "
        "non-numeric leaves match)"]


@pytest.mark.parametrize("changed", [
    {**REPORT, "pass": False},
    {**REPORT, "claim_id": "kernel-negative"},
    {**REPORT, "probe_count": True},           # a flag where a number stood
    {"passed" if k == "pass" else k: v for k, v in REPORT.items()},
    {k: REPORT[k] for k in reversed(REPORT)},  # the same keys in another order
], ids=["flag", "string", "type", "key", "key-order"])
def test_every_other_json_leaf_must_match(changed):
    assert compare_outputs.json_differences(_json([REPORT]), _json([changed])).endswith(
        "non-numeric leaves differ")
    assert compare_outputs.json_differences(_json([REPORT]), _json([REPORT, REPORT])).endswith(
        "non-numeric leaves differ")


@pytest.mark.parametrize("changed, first", [
    ({**REPORT, "gray_nodes": [1]}, "0/gray_nodes (only in new)"),
    ({k: v for k, v in REPORT.items() if k != "pass"}, "0/pass (only in old)"),
    ({**REPORT, "pass": False}, "0/pass (True -> False)"),
    ({**REPORT, "claim_id": "kernel-negative"},
     "0/claim_id ('kernel-positive' -> 'kernel-negative')"),
], ids=["added-key", "removed-key", "flag", "string"])
def test_the_first_differing_json_leaf_is_named(changed, first):
    # an added summary key is named, so it cannot hide another change
    assert compare_outputs.json_differences(_json([REPORT]), _json([changed])) == (
        f"max abs diff 0.000e+00, max rel diff 0.000e+00; first at {first}, "
        "non-numeric leaves differ")
    assert compare_outputs.json_differences(_json([REPORT]), _json([REPORT, REPORT])).endswith(
        "first at (root) (('length', 1) -> ('length', 2)), non-numeric leaves differ")


def test_nan_leaves_match_only_each_other():
    assert compare_outputs.json_differences(b"[NaN]", b"[NaN]") == (
        "max abs diff 0.000e+00, max rel diff 0.000e+00; non-numeric leaves match")
    assert compare_outputs.json_differences(b"[NaN]", b"[1.0]").startswith(
        "max abs diff inf, max rel diff inf")


TRACE = b"iter,lambda1,status\r\n0,1.0,nan\r\n1,0.5,fixed_point\r\n"


def test_a_changed_csv_number_reports_its_size():
    new = b"iter,lambda1,status\r\n0,1.0,nan\r\n1,0.625,fixed_point\r\n"
    assert compare_outputs.csv_differences(TRACE, new) == (
        "max abs diff 1.250e-01, max rel diff 2.000e-01; header matches, "
        "row count matches, non-numeric cells match")


@pytest.mark.parametrize("changed, verdict", [
    (b"iter,lambda,status\r\n0,1.0,nan\r\n1,0.5,fixed_point\r\n", "header differs"),
    (b"iter,lambda1,status\r\n0,1.0,nan\r\n", "row count differs (2 -> 1)"),
    (b"iter,lambda1,status\r\n0,1.0,nan\r\n1,0.5,max_iter\r\n",
     "first at row 2, column status ('fixed_point' -> 'max_iter'), non-numeric cells differ"),
    (b"iter,lambda1,status\r\n0,1.0,nan\r\n1,0.5\r\n",
     "first at row 2 (3 cells -> 2 cells), non-numeric cells differ"),
    # a number that became an empty cell, as a gap without a second eigenvalue
    (b"iter,lambda1,status\r\n0,,nan\r\n1,0.5,max_iter\r\n",
     "first at row 1, column lambda1 ('1.0' -> ''), non-numeric cells differ"),
], ids=["header", "rows", "string", "row-length", "emptied"])
def test_every_other_csv_cell_must_match(changed, verdict):
    assert verdict in compare_outputs.csv_differences(TRACE, changed)


def test_nan_cells_match_only_each_other():
    assert compare_outputs.csv_differences(TRACE, TRACE.replace(b"0,1.0,nan", b"0,nan,nan")) \
        .startswith("max abs diff inf, max rel diff inf")


def test_the_density_solve_reads_the_right_heavy_optimum(tmp_path, monkeypatch):
    # the command runs after the optimize whose final density it reads, in
    # the same output directory, and reproduces its last eigenvalue
    names = list(compare_outputs.COMMANDS)
    assert names.index("optimize-right-heavy") < names.index("solve-right-heavy-density")
    monkeypatch.setattr(compare_outputs, "COMMANDS", {
        name: compare_outputs.COMMANDS[name]
        for name in ("optimize-right-heavy", "solve-right-heavy-density")})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_modes_x": 8, "n_basis_y": 6, "n_quad_x": 32,
                                  "n_quad_y": 16}))
    src = _TOOL.parent.parent / "src"
    runs = compare_outputs.run_tree(src, str(config), tmp_path / "out")
    assert {name: code for name, (code, _) in runs.items()} == {
        "optimize-right-heavy": 0, "solve-right-heavy-density": 0}
    trace = (tmp_path / "out/optimize-right-heavy/right-heavy/trace.csv").read_text()
    pair = json.loads((tmp_path / "out/solve-right-heavy-density/eigenpair.json").read_text())
    assert repr(pair["lambda1"]) == trace.splitlines()[-1].split(",")[1]


@pytest.mark.parametrize("name, counts", [("dim1600.json", (80, 20, 320, 64)),
                                          ("q512.json", (20, 12, 512, 128)),
                                          ("dim1.json", (1, 1, 2, 1)),
                                          ("beta1e100.json", (2, 2, 8, 4))])
def test_the_comparison_configs_load(name, counts):
    # the configs the README's compare command names: dim 1600 on 320 x 64,
    # the 512 x 128 agreement quadrature, the one-function plate and the
    # beta = 1e100 plate, whose optimize summary has no heavy node
    configs = _TOOL.parent / "configs"
    assert sorted(p.name for p in configs.iterdir()) == ["beta1e100.json", "dim1.json",
                                                         "dim1600.json", "q512.json"]
    cfg = load_config(configs / name)
    assert (cfg.n_modes_x, cfg.n_basis_y, cfg.n_quad_x, cfg.n_quad_y) == counts
