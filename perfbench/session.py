"""One iteration of a workload, run in a fresh process.

Usage: python3 session.py SPEC_JSON REPORT_JSON

SPEC_JSON names the source tree, the config file, the command argument
lists with their output directories, the iteration id and whether to trace.
The process times the import of hingedplate plus the build of the
workload's PlateSystem (set-up), then drives ``hingedplate.cli.main``
in-process for each command in turn.  It writes REPORT_JSON with the set-up
time, each command's exit code and wall time, the session wall time and
its own peak resident memory; a traced iteration adds the per-layer
metrics and its spans.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run(spec: dict) -> dict:
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import hingedplate
    from hingedplate.cli import main as cli_main
    from hingedplate.config import load_config
    from hingedplate.optimize import PlateSystem

    PlateSystem(load_config(spec["config"]))
    setup_s = time.perf_counter() - t0
    if not Path(hingedplate.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported hingedplate from {hingedplate.__file__}, not {src}")

    rec = None
    if spec["trace"]:
        from probes import SpanRecorder, install
        rec = SpanRecorder(spec["iteration"])
        install(rec)

    commands = []
    t_session = time.perf_counter()
    for argv, log_path in spec["commands"]:
        with open(log_path, "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t = time.perf_counter()
            if rec is not None:
                rec.root = rec.begin(f"cli.{argv[0]}")
            try:
                rc = cli_main(argv)
            except Exception:  # a crash is a failed command, not a lost run
                traceback.print_exc()
                rc = -1
            finally:
                if rec is not None:
                    rec.end()
                    rec.root = None
            wall = time.perf_counter() - t
        commands.append({"argv": argv, "rc": rc, "wall_s": wall})
    session_s = time.perf_counter() - t_session

    report = {
        "setup_s": setup_s,
        "session_s": session_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        report["layers"] = rec.layer_metrics()
        report["spans"] = rec.spans
    return report


if __name__ == "__main__":
    spec_path, report_path = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    Path(report_path).write_text(json.dumps(run(spec)), encoding="utf-8")
