"""Every function and method the benchmark's probes wrap still exists and
still fits the probe's counters.

perfbench/probes.py patches hingedplate's public names from outside the
package and its counters read their arguments; a renamed function or a
changed signature would only surface in a traced benchmark run.
Installing the probes and running solve, optimize and certify under them
here turns that into a test failure.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RUN_UNDER_PROBES = """
import json, sys
import probes
from hingedplate.cli import main
rec = probes.SpanRecorder(0)
probes.install(rec)
cfg, out = sys.argv[1], sys.argv[2]
codes = [main(["solve", "--config", cfg, "--out", out + "/solve"]),
         main(["optimize", "--config", cfg, "--init", "uniform", "--out", out + "/optimize"]),
         main(["certify", "--config", cfg, "--suite", "all", "--out", out + "/certify"])]
print(json.dumps({"codes": codes, "layers": rec.layer_metrics()}))
"""


def test_probes_install_on_current_package(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_modes_x": 6, "n_basis_y": 4, "n_quad_x": 16, "n_quad_y": 8}))
    proc = subprocess.run([sys.executable, "-c", RUN_UNDER_PROBES, str(cfg), str(tmp_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    layers = result["layers"]
    assert layers["assembly.assemble_weighted_mass.calls"] > 0
    # every field sample goes through the probed lattice sampler
    assert layers["basis.evaluate_on_grid.calls"] > 0
    # run_suite's reports and certify_series' keywords reach their counters
    assert layers["certify.claims"] == 25
    assert layers["series.certify_series.computed_sin_evaluations"] > 0
