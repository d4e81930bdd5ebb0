"""Every function and method the benchmark's probes wrap still exists.

perfbench/probes.py patches hingedplate's public names from outside the
package; a renamed or deleted one would only surface in a traced benchmark
run.  Installing the probes once here turns that into a test failure.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_probes_install_on_current_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import probes; probes.install(probes.SpanRecorder(0))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
