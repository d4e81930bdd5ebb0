"""Reduce parent/change benchmark runs to one BENCH_<tag>.json file.

Usage, from the root of a checkout:

    python3 tools/bench_file.py --tag TAG --parent RUN [RUN ...] --change RUN [RUN ...]

Each RUN is a ``perfbench/run.py`` run directory (``.perfbench_runs/<run>/``)
or the ``result.json`` inside one.  A parent run and a change run of the
same workload, seed and trace setting form a pair; a run without a partner
is an error.  For every workload and every metric of its runs' summaries
the file records each side's median, quartiles and run count, and the
number of pairs in which the change is better, in the direction
``BENCHMARK.json`` gives (lower, where it names none).  It also records the
commands attempted and failed on each side and the environment block of the
runs, with the keys on which any run's environment differs.  The file is
written to ``BENCH_<tag>.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run(path: Path) -> dict:
    path = Path(path)
    return json.loads((path / "result.json" if path.is_dir() else path).read_text())


def _directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _paired(parent: list, change: list) -> dict:
    """(workload, trace) -> list of (parent run, change run), in seed order."""
    def keyed(runs, side):
        out = {}
        for run in runs:
            key = (run["workload"], run["trace"], run["seed"])
            if key in out:
                raise ValueError(f"two {side} runs of workload {key[0]}, trace {key[1]}, "
                                 f"seed {key[2]}")
            out[key] = run
        return out

    p, c = keyed(parent, "parent"), keyed(change, "change")
    if p.keys() != c.keys():
        raise ValueError(f"runs without a partner: {sorted(p.keys() ^ c.keys())}")
    groups = {}
    for key in sorted(p):
        groups.setdefault(key[:2], []).append((p[key], c[key]))
    return groups


def reduce_runs(tag: str, parent: list, change: list) -> dict:
    better = _directions()
    workloads = {}
    for (name, trace), pairs in _paired(parent, change).items():
        metrics = {}
        for key in pairs[0][0]["summary"]:
            vals = [(p["summary"][key]["value"], c["summary"][key]["value"])
                    for p, c in pairs if key in p["summary"] and key in c["summary"]]
            sign = -1.0 if better.get(key, "lower") == "lower" else 1.0
            metrics[key] = {
                "unit": pairs[0][0]["summary"][key]["unit"],
                "better": better.get(key, "lower"),
                "parent": _spread([v for v, _ in vals]),
                "change": _spread([v for _, v in vals]),
                "pairs_better": sum(sign * (b - a) > 0.0 for a, b in vals),
                "pairs": len(vals),
            }
        workloads[f"{name}{'-traced' if trace else ''}"] = {
            "workload": name, "trace": trace,
            "seeds": [p["seed"] for p, _ in pairs],
            "seconds": pairs[0][0]["seconds"],
            "attempted": {"parent": sum(p["attempted"] for p, _ in pairs),
                          "change": sum(c["attempted"] for _, c in pairs)},
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "metrics": metrics,
        }
    envs = [run["environment"] for run in parent + change]
    return {
        "tag": tag,
        "statistic": "median and quartiles (inclusive method) over runs; each run's "
                     "value is that run's summary (median over its iterations, the "
                     "highest peak for peak_rss_mb)",
        "environment": envs[0],
        "environment_differs": sorted(k for k in envs[0] if any(e.get(k) != envs[0][k]
                                                                for e in envs)),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--parent", required=True, nargs="+", type=Path)
    parser.add_argument("--change", required=True, nargs="+", type=Path)
    args = parser.parse_args(argv)
    try:
        bench = reduce_runs(args.tag, [load_run(p) for p in args.parent],
                            [load_run(p) for p in args.change])
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
