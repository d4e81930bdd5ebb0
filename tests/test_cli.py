import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hingedplate
from hingedplate import (
    PlateConfig,
    PlateSystem,
    QuadratureGrid,
    analyze_optimum,
    minimize,
    strip_density,
    uniform_density,
)
from hingedplate.assembly import AssemblyError
from hingedplate.cli import main
from hingedplate.io import write_grid_csv, write_json, write_trace_csv
from hingedplate.optimize import AnalysisError, random_admissible_density

SMALL = {"n_modes_x": 8, "n_basis_y": 6, "n_quad_x": 32, "n_quad_y": 16}


@pytest.fixture()
def small_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return path


def _package_env() -> dict:
    """The environment for a subprocess that imports this checkout's package."""
    src = Path(hingedplate.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _result_bytes(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "manifest.jsonl":
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


def test_solve_smoke(tmp_path, small_config_file):
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(small_config_file), "--out", str(out)])
    assert rc == 0
    assert (out / "eigenpair.json").exists()
    assert (out / "levelsets.csv").exists()
    assert (out / "manifest.jsonl").exists()
    payload = json.loads((out / "eigenpair.json").read_text())
    assert payload["lambda1"] > 0.0
    manifest = json.loads((out / "manifest.jsonl").read_text().splitlines()[0])
    produced = set(manifest["outputs"])
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.jsonl"}
    assert produced == on_disk


def test_solve_rejects_inadmissible_density(tmp_path, small_config_file):
    grid = QuadratureGrid.from_config(PlateConfig(**SMALL))
    vals = np.full(grid.shape, 1.0)
    vals[0, 0] = 0.4  # below alpha
    density_path = tmp_path / "density.csv"
    write_grid_csv(density_path, grid, vals, value_name="p")
    rc = main(["solve", "--config", str(small_config_file),
               "--out", str(tmp_path / "run"), "--density", str(density_path)])
    assert rc == 2
    assert not (tmp_path / "run").exists()


def test_density_below_alpha_by_less_than_1e_12_exits_2(tmp_path, capsys):
    # a zero node is within 1e-12 of alpha = 1e-13; the bound is exact, so
    # the file is rejected as input before the mass assembly sees the zero
    # and before the output directory is made
    cfg = PlateConfig(n_modes_x=4, n_basis_y=4, n_quad_x=8, n_quad_y=4, alpha=1e-13)
    cfg_path, density_path = tmp_path / "config.json", tmp_path / "density.csv"
    cfg_path.write_text(json.dumps(cfg.as_dict()))
    grid = QuadratureGrid.from_config(cfg)
    vals = np.ones(grid.shape)
    vals[0, 0], vals[-1, 0] = 0.0, 2.0  # the zero node's mass moved to its mirror
    write_grid_csv(density_path, grid, vals, value_name="p")
    rc = main(["solve", "--config", str(cfg_path), "--density", str(density_path),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "violates bounds" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_solve_rejects_non_finite_density(tmp_path, small_config_file, capsys):
    grid = QuadratureGrid.from_config(PlateConfig(**SMALL))
    vals = np.full(grid.shape, 1.0)
    vals[4, 3] = np.nan
    density_path = tmp_path / "density.csv"
    write_grid_csv(density_path, grid, vals, value_name="p")
    assert "nan" in density_path.read_text()
    rc = main(["solve", "--config", str(small_config_file),
               "--out", str(tmp_path / "run"), "--density", str(density_path)])
    assert rc == 2
    assert "density values contain non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["solve", "--density"], ["optimize", "--init"]])
def test_empty_density_file_exits_2(tmp_path, small_config_file, capsys, flag):
    # an empty file has no header row; reading it once escaped as StopIteration
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rc = main([flag[0], "--config", str(small_config_file),
               "--out", str(tmp_path / "run"), flag[1], str(empty)])
    assert rc == 2
    assert "must have columns x, y, <value>" in capsys.readouterr().err
    # the file is read before the output directory is made
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["blank-line", "non-numeric", "extra-field", "short",
                                  "not-utf-8"])
def test_malformed_density_file_exits_2_naming_file_and_line(tmp_path, small_config_file,
                                                             capsys, case):
    grid = QuadratureGrid.from_config(PlateConfig(**SMALL))
    density_path = tmp_path / "density.csv"
    write_grid_csv(density_path, grid, np.ones(grid.shape), value_name="p")
    lines = density_path.read_bytes().split(b"\r\n")  # the last entry is empty
    n_rows = grid.shape[0] * grid.shape[1]
    if case == "blank-line":
        lines.append(b"")  # a second CRLF after the last row
        expected = f"line {n_rows + 2}:"
    elif case == "non-numeric":
        lines[5] = lines[5].rsplit(b",", 1)[0] + b",abc"
        expected = "line 6:"
    elif case == "extra-field":
        lines[3] += b",7"
        expected = "line 4:"
    elif case == "not-utf-8":
        lines[3] += b"\xff"
        expected = "line 4:"
    else:
        lines = lines[:5] + [b""]
        expected = f"has 4 rows, grid needs {n_rows}"
    density_path.write_bytes(b"\r\n".join(lines))
    rc = main(["solve", "--config", str(small_config_file),
               "--out", str(tmp_path / "run"), "--density", str(density_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"density file {density_path}" in err and expected in err, err


def test_solve_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"alpha": 1.5}))
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 2
    cfg.write_text(json.dumps({"unknown_key": 1}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 2
    # malformed JSON, nesting too deep for the parser, bytes that are not UTF-8
    for text in (b'{"alpha": 0.5,', b"[" * 100000, b'{"alpha": "\xff"}'):
        cfg.write_bytes(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r3")]) == 2
    assert not (tmp_path / "r3").exists()


def test_repeated_config_key_exits_2(tmp_path, capsys):
    # the first beta must not be silently replaced by the second
    cfg = tmp_path / "repeated.json"
    cfg.write_text('{"n_modes_x": 8, "n_basis_y": 6, "n_quad_x": 32, "n_quad_y": 16, '
                   '"beta": 3.0, "beta": 1e12}')
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "repeats the key 'beta'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_deterministic_outputs(tmp_path, small_config_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", str(small_config_file), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(small_config_file), "--out", str(out2)]) == 0
    assert _result_bytes(out1) == _result_bytes(out2)


def test_optimize_multistart(tmp_path, small_config_file):
    out = tmp_path / "opt"
    rc = main(["optimize", "--config", str(small_config_file), "--out", str(out),
               "--starts", "4", "--seed", "3"])
    assert rc == 0
    summary = json.loads((out / "optimize_summary.json").read_text())
    assert len(summary["final_lambda_per_start"]) == 4
    assert summary["cross_start_relative_spread"] >= 0.0
    assert summary["symmetry_verdict"] in ("SYMMETRIC", "LEFT_DOMINANT", "RIGHT_DOMINANT")
    lo, hi = summary["heavy_region_x_range"]
    assert lo < math.pi / 2 < hi
    for start in summary["final_lambda_per_start"]:
        assert (out / start / "trace.csv").exists()
        assert (out / start / "final_density.csv").exists()
        trace_lines = (out / start / "trace.csv").read_text().splitlines()
        lams = [float(line.split(",")[1]) for line in trace_lines[1:]]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(lams, lams[1:]))
        solves = (out / start / "eigensolve.csv").read_text(encoding="utf-8").splitlines()
        assert solves[0] == "iter,iterations,residual,gap"
        rows = [line.split(",") for line in solves[1:]]
        assert [r[0] for r in rows] == [line.split(",")[0] for line in trace_lines[1:]]
        assert all(int(r[1]) >= 0 and float(r[2]) <= 1e-12 and float(r[3]) > 0.0
                   for r in rows)


def test_optimize_summary_is_the_analysis_record(tmp_path, small_config_file):
    # the summary is analyze_optimum's record of the same starts, byte for byte
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(small_config_file), "--out", str(out),
                 "--starts", "4", "--seed", "3"]) == 0
    system = PlateSystem(PlateConfig(**SMALL))
    starts = {"uniform": uniform_density(system),
              "left-heavy": strip_density(system, "left"),
              "right-heavy": strip_density(system, "right"),
              "random-3": random_admissible_density(system, np.random.default_rng(3))}
    record = analyze_optimum(system, {n: minimize(system, p) for n, p in starts.items()})
    write_json(tmp_path / "record.json", record)
    assert (tmp_path / "record.json").read_bytes() == \
        (out / "optimize_summary.json").read_bytes()


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_random_start_at_extreme_contrast_exits_0(tmp_path, seed):
    # at beta = 1e12 the node nearest 1 sits clipped at alpha; it once took
    # the bisection's mass defect and failed the mass check with exit 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"beta": 1e12, "n_modes_x": 6, "n_basis_y": 4, "n_quad_x": 16, "n_quad_y": 8}))
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "opt"),
                 "--seed", seed]) == 0


def test_optimize_with_no_heavy_node_writes_null_heavy_ranges(tmp_path):
    # at alpha = 0.99999 the heavy share (1 - alpha)/(beta - alpha) = 5e-6
    # of the area is below one node's weight: only the gray node holds
    # beta-side material, below the midpoint, so no node counts as heavy
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"alpha": 0.99999}))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "optimize_summary.json").read_text())
    assert summary["heavy_region_x_range"] is None
    assert summary["heavy_region_y_range"] is None
    assert summary["symmetry_verdict"] == "SYMMETRIC"
    assert set(summary["statuses"].values()) == {"fixed_point"}
    assert (out / "manifest.jsonl").exists()


def test_solve_reproduces_optimized_lambda(tmp_path, small_config_file):
    # one eigensolve path: a density's eigenpair depends on the density
    # alone, so re-solving each start's final density gives its last
    # trace eigenvalue bit for bit
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(small_config_file), "--out", str(out),
                 "--starts", "4", "--seed", "7"]) == 0
    summary = json.loads((out / "optimize_summary.json").read_text())
    for start in summary["final_lambda_per_start"]:
        last = (out / start / "trace.csv").read_text().splitlines()[-1]
        run = tmp_path / f"solve-{start}"
        assert main(["solve", "--config", str(small_config_file), "--out", str(run),
                     "--density", str(out / start / "final_density.csv")]) == 0
        pair = json.loads((run / "eigenpair.json").read_text())
        assert repr(pair["lambda1"]) == last.split(",")[1]


def test_optimize_single_named_start(tmp_path, small_config_file, monkeypatch):
    # only the selected start density is built
    import hingedplate.cli

    built = []
    for name in ("uniform_density", "strip_density"):
        original = getattr(hingedplate.cli, name)

        def recording(*args, _name=name, _original=original):
            built.append((_name,) + args[1:])
            return _original(*args)

        monkeypatch.setattr(hingedplate.cli, name, recording)
    out = tmp_path / "opt1"
    rc = main(["optimize", "--config", str(small_config_file), "--out", str(out),
               "--init", "left-heavy"])
    assert rc == 0
    assert built == [("strip_density", "left")]
    summary = json.loads((out / "optimize_summary.json").read_text())
    assert list(summary["final_lambda_per_start"]) == ["left-heavy"]


@pytest.mark.parametrize("starts", ["0", "-1"])
def test_optimize_rejects_starts_below_one(tmp_path, small_config_file, capsys, starts):
    out = tmp_path / "opt"
    rc = main(["optimize", "--config", str(small_config_file), "--out", str(out),
               "--starts", starts])
    assert rc == 2
    assert f"--starts must be at least 1, got {starts}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("init", [["--init", "left-heavy"], ["--starts", "4"]],
                         ids=["left-heavy", "multistart"])
def test_optimize_rejects_negative_seed(tmp_path, small_config_file, capsys, init):
    out = tmp_path / "opt"
    rc = main(["optimize", "--config", str(small_config_file), "--out", str(out),
               *init, "--seed", "-1"])
    assert rc == 2
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("start, loaded", [(["--init", "left-heavy"], False),
                                           (["--starts", "3"], False),
                                           (["--starts", "4"], True)],
                         ids=["left-heavy", "three-named", "one-random"])
def test_only_random_starts_import_numpy_random(tmp_path, small_config_file, start, loaded):
    code = ("import sys; from hingedplate.cli import main; "
            "assert main(sys.argv[1:]) == 0; print('numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, "optimize", "--config",
                           str(small_config_file), "--out", str(tmp_path / "opt"), *start],
                          env=_package_env(), capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == str(loaded)


def test_random_start_is_first_draw_of_seeded_generator(tmp_path, small_config_file,
                                                         monkeypatch):
    import hingedplate.cli

    started = []
    original = hingedplate.cli.minimize

    def recording(system, density):
        started.append((system, density))
        return original(system, density)

    monkeypatch.setattr(hingedplate.cli, "minimize", recording)
    assert main(["optimize", "--config", str(small_config_file), "--out", str(tmp_path / "o"),
                 "--starts", "4", "--seed", "5"]) == 0
    system, density = started[3]
    ref = random_admissible_density(system, np.random.default_rng(5))
    assert np.array_equal(density.values.view(np.int64), ref.values.view(np.int64))


def test_optimize_random_init_runs_the_seeded_start(tmp_path, small_config_file):
    # --init random runs one start, random-0, from the seeded generator's
    # first draw: its trace is minimize's on that density, byte for byte
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(small_config_file), "--out", str(out),
                 "--init", "random", "--seed", "5"]) == 0
    assert [p.name for p in out.iterdir() if p.is_dir()] == ["random-0"]
    system = PlateSystem(PlateConfig(**SMALL))
    trace = minimize(system, random_admissible_density(system, np.random.default_rng(5)))
    write_trace_csv(tmp_path / "trace.csv", trace)
    assert (tmp_path / "trace.csv").read_bytes() == (out / "random-0" / "trace.csv").read_bytes()


def test_optimize_deterministic(tmp_path, small_config_file):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert main(["optimize", "--config", str(small_config_file),
                     "--out", str(out), "--starts", "2", "--seed", "11"]) == 0
    assert _result_bytes(out1) == _result_bytes(out2)


def test_certify_series_suite(tmp_path):
    out = tmp_path / "cert"
    rc = main(["certify", "--suite", "series", "--out", str(out)])
    assert rc == 0
    reports = json.loads((out / "certify_series.json").read_text())
    assert all(r["pass"] for r in reports)


def test_certify_all_unique_claims(tmp_path, small_config_file):
    # under-resolved config: the bundle must still be produced, every claim
    # exactly once, failures attributed to the recorded resolution
    cfg = dict(SMALL, n_modes_x=2, n_basis_y=3)
    path = tmp_path / "under.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cert_all"
    rc = main(["certify", "--suite", "all", "--config", str(path), "--out", str(out)])
    assert rc in (0, 4)
    reports = json.loads((out / "certify_all.json").read_text())
    ids = [r["claim_id"] for r in reports]
    assert len(ids) == len(set(ids))
    from hingedplate.certify import CLAIMS

    assert set(ids) == set(CLAIMS)
    if any(not r["pass"] for r in reports):
        assert rc == 4
        for r in reports:
            if not r["pass"]:
                assert r["resolution"]


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy alone; scipy serves only the tests' dense oracles
    code = ("import sys, hingedplate.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_and_solve_leave_random_and_scipy_unloaded(tmp_path, small_config_file):
    # numpy.random costs megabytes of resident memory and milliseconds of
    # import; only a random start or the certification suites draw from it
    code = ("import sys\n"
            "import hingedplate.cli\n"
            f"rc = hingedplate.cli.main(['solve', '--config', {str(small_config_file)!r},\n"
            f"                           '--out', {str(tmp_path / 'run')!r}])\n"
            "print(rc, sorted(m for m in sys.modules\n"
            "                 if m == 'scipy' or m.startswith(('numpy.random', 'scipy.'))))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["certify", "--suite", "bogus", "--out", str(tmp_path)])


@pytest.mark.parametrize("command", [["solve"], ["optimize"], ["certify", "--suite", "green"]])
def test_y_quadrature_below_basis_exits_2(tmp_path, capsys, command):
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(dict(SMALL, n_quad_y=SMALL["n_basis_y"] - 1)))
    rc = main(command + ["--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "n_quad_y=5 is below n_basis_y=6" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve"], ["optimize"], ["certify", "--suite", "green"]])
def test_x_quadrature_below_modes_exits_2(tmp_path, capsys, command):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(dict(SMALL, n_quad_x=SMALL["n_modes_x"] - 1)))
    rc = main(command + ["--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "n_quad_x=7 is below n_modes_x=8" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve"], ["optimize"],
                                     ["certify", "--suite", "polarization"]])
def test_odd_x_quadrature_exits_2(tmp_path, capsys, command):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(dict(SMALL, n_quad_x=SMALL["n_quad_x"] - 1)))
    rc = main(command + ["--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "n_quad_x=31 is odd" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ({"ell": 1e155}, "ell=1e+155 is too large"),
    ({"beta": math.inf}, "beta must be finite"),
], ids=["ell-squared-overflows", "beta-infinite"])
@pytest.mark.parametrize("command", [["solve"], ["optimize"], ["certify", "--suite", "all"]])
def test_non_finite_config_exits_2(tmp_path, capsys, command, bad, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(SMALL, **bad)))  # math.inf is written as Infinity
    rc = main(command + ["--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_analysis_failure_exit_code(tmp_path, small_config_file, monkeypatch):
    # an analysis outcome (here a mixed mirror pattern) is not a validation error
    def mixed(vals):
        raise AnalysisError("mirror gaps of mixed sign beyond tolerance")

    monkeypatch.setattr("hingedplate.optimize._mirror_verdict", mixed)
    rc = main(["optimize", "--config", str(small_config_file),
               "--out", str(tmp_path / "opt"), "--init", "uniform"])
    assert rc == 3


# One value that PlateConfig or load_config must refuse.
BROKEN_VALUES = [
    ("n_modes_x", 0), ("n_basis_y", 2.5), ("n_quad_x", 7), ("n_quad_x", 1),
    ("n_quad_y", 0), ("sigma", 1.0), ("sigma", "0.2"), ("ell", 0.0),
    ("alpha", 1.0), ("beta", 1.0), ("n_modes", 4),
]


@st.composite
def small_configs(draw):
    """A valid config of at most 6 modes and 5 profiles, or one with a
    single broken value.  Every size key is given, so no default (20
    modes on 96 x 48 nodes) makes an example slow."""
    modes = draw(st.integers(1, 6))
    profiles = draw(st.integers(1, 5))
    cfg = {
        "n_modes_x": modes,
        "n_basis_y": profiles,
        "n_quad_x": 2 * draw(st.integers((modes + 1) // 2, 8)),
        "n_quad_y": draw(st.integers(profiles, 10)),
    }
    cfg.update(draw(st.fixed_dictionaries({}, optional={
        "sigma": st.sampled_from([0.0, 0.3, 0.9]),
        "ell": st.sampled_from([0.3, math.pi / 5, 1.0]),
        "alpha": st.sampled_from([0.1, 0.5, 0.9]),
        "beta": st.sampled_from([1.5, 3.0, 10.0]),
    })))
    broken = draw(st.none() | st.sampled_from(BROKEN_VALUES))
    if broken is not None:
        cfg[broken[0]] = broken[1]
    return cfg


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cfg=small_configs())
# two x-nodes: the kernel suite's probe range was reversed, and exited 2
@example(cfg={"n_modes_x": 1, "n_basis_y": 1, "n_quad_x": 2, "n_quad_y": 1})
# the light share (beta-1)/(beta-alpha) rounds to 1: the fill exited 2
@example(cfg={"n_modes_x": 2, "n_basis_y": 2, "n_quad_x": 8, "n_quad_y": 4, "beta": 1e100})
def test_cli_exit_codes_on_small_configs(cfg):
    # every command ends in a documented exit code, never in a traceback;
    # exit 2 means a rejected input, found before any output is written
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        for k, command in enumerate((["solve"], ["optimize", "--starts", "2"],
                                     ["certify", "--suite", "green"],
                                     ["certify", "--suite", "polarization"])):
            out = Path(tmp) / f"run-{k}"
            rc = main(command + ["--config", str(path), "--out", str(out)])
            assert rc in (0, 2, 3, 4), (cfg, command, rc)
            if rc == 2:
                assert not out.exists(), (cfg, command)
            if rc == 0:
                assert (out / "manifest.jsonl").exists(), (cfg, command)


@pytest.mark.parametrize("command", ["solve", "optimize", "certify --suite green",
                                     "certify --suite polarization", "certify --suite all"])
def test_thin_plate_exits_3_without_traceback(tmp_path, command):
    # at ell = 1e-8 rounding makes the p = 1 spectrum negative, which used to
    # leave the eigensolver's start with no mode and end in an IndexError,
    # and let the kernel suite pass claims about an indefinite operator; the
    # system's build rejects it now, before any output directory is made
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(dict(SMALL, ell=1e-8)))
    proc = subprocess.run([sys.executable, "-m", "hingedplate.cli", *command.split(),
                           "--config", str(path), "--out", str(tmp_path / "run")],
                          env=_package_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "solver error: uniform plate spectrum is not positive" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "PASS" not in proc.stdout
    assert not (tmp_path / "run").exists()


def test_thin_plate_series_suite_still_certifies(tmp_path):
    # the series suite reads no operator, so a thin plate does not stop it
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(dict(SMALL, ell=1e-8)))
    assert main(["certify", "--suite", "series", "--config", str(path),
                 "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("key, value", [("opt_max_iter", 100), ("opt_tol", 1e-10),
                                        ("eig_tol", 1e-12)])
def test_solver_settings_are_not_config_keys(tmp_path, capsys, key, value):
    # the sweep cap and both tolerances are constants of the solver now; a
    # config that still sets one is rejected before any output is written
    path = tmp_path / "old.json"
    path.write_text(json.dumps(dict(SMALL, **{key: value})))
    out = tmp_path / "run"
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
    assert f"unknown config keys ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_only_input_checks_exit_2(tmp_path, small_config_file, monkeypatch):
    # an AssemblyError comes after the config was accepted, so it is a
    # solver outcome; any other ValueError is a bug and propagates
    def build_raising(exc):
        def build(*args):
            raise exc
        return build

    command = ["solve", "--config", str(small_config_file), "--out", str(tmp_path / "run")]
    monkeypatch.setattr("hingedplate.optimize.StiffnessFactor.build",
                        build_raising(AssemblyError("non-finite stiffness entries")))
    assert main(command) == 3
    monkeypatch.setattr("hingedplate.optimize.StiffnessFactor.build",
                        build_raising(ValueError("an internal check")))
    with pytest.raises(ValueError, match="an internal check"):
        main(command)


def test_kernel_suite_on_two_x_nodes_is_not_an_input_error(tmp_path):
    # its probe range ran from the second node to the second to last, which
    # on two nodes is reversed, and the reflection-gap check exited 2
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n_modes_x": 1, "n_basis_y": 1, "n_quad_x": 2, "n_quad_y": 1}))
    out = tmp_path / "run"
    rc = main(["certify", "--suite", "green", "--config", str(path), "--out", str(out)])
    assert rc in (0, 4)
    assert len(json.loads((out / "certify_green.json").read_text())) == 9


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_dimension_1_outputs_are_strict_json(tmp_path):
    # with one basis function there is no second eigenvalue; its relative
    # gap was written as Infinity, which a strict JSON parser rejects
    path = tmp_path / "dim1.json"
    path.write_text(json.dumps({"n_modes_x": 1, "n_basis_y": 1, "n_quad_x": 2, "n_quad_y": 1}))
    for command, codes in (("solve", (0,)), ("optimize", (0,)),
                           ("certify --suite all", (0, 4))):
        out = tmp_path / command.split()[0]
        assert main([*command.split(), "--config", str(path), "--out", str(out)]) in codes
    documents = [(tmp_path / name).read_text() for name in
                 ("solve/eigenpair.json", "optimize/optimize_summary.json",
                  "certify/certify_all.json")]
    for run in ("solve", "optimize", "certify"):
        documents += (tmp_path / run / "manifest.jsonl").read_text().splitlines()
    assert len(documents) == 6
    for text in documents:
        json.loads(text, parse_constant=_reject_constant)
    assert json.loads(documents[0])["relative_gap"] is None


@pytest.mark.parametrize("cfg, finite", [
    ({"n_modes_x": 1, "n_basis_y": 1, "n_quad_x": 2, "n_quad_y": 1}, False),
    ({"n_modes_x": 6, "n_basis_y": 4, "n_quad_x": 16, "n_quad_y": 8}, True),
], ids=["dim-1", "6x4"])
def test_eigensolve_gap_cell_is_empty_without_a_second_eigenvalue(tmp_path, cfg, finite):
    # eigenpair.json writes null for the missing gap; eigensolve.csv wrote inf
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["optimize", "--starts", "1", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "uniform" / "eigensolve.csv").read_text(encoding="utf-8").splitlines()
    gaps = [line.split(",")[3] for line in lines[1:]]
    assert gaps
    if finite:
        assert all(math.isfinite(float(g)) for g in gaps)
    else:
        assert all(g == "" for g in gaps)


def test_solver_failure_exit_code(small_config_file, tmp_path, monkeypatch):
    # an unreachable residual demand must surface as a solver failure
    monkeypatch.setattr("hingedplate.eigensolve.EIG_TOL", 1e-30)
    rc = main(["solve", "--config", str(small_config_file), "--out", str(tmp_path / "run")])
    assert rc == 3
