"""Run random configs through the CLI and report every exit outside the contract.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 tools/fuzz_cli.py [--examples 300] [--seed 0] [--small-grids]

Each example sets one to three of the plate's keys, drawn from wide
ranges: ``sigma`` in [0, 0.999] (its ends included), ``ell`` log-uniform
from 1e-8 to 1e6, ``alpha`` log-uniform from 1e-9 to 1 and ``beta``
log-uniform from 1 to 1e100.  The grid is the default one (20 modes and
12 profiles on 96 x 48 nodes); with ``--small-grids`` each example also
draws a grid of at most 6 modes and 5 profiles on at most 16 x 10 nodes,
every size key given.  Example k then runs, in this process, one after
the other,

    solve
    optimize --seed k
    certify --suite all

each through ``hingedplate.cli.main`` with its own output directory in a
temporary directory, its stdout and stderr captured.  The CLI promises
the exit codes 0, 2 (rejected input), 3 (solver or analysis outcome) and
4 (failed certification claim); every other exit code and every
exception that escapes ``main`` is reported with the config and command
that caused it.  The examples come from ``random.Random(seed)``, so a run
repeats exactly.  The exit code is 1 if anything was reported, else 0.

Out-of-range values that the config accepts but the solver cannot handle
end in exit 3 today.  Load-time thresholds that would reject them with
exit 2 (on the x-quadrature, or on the conditioning of thin plates) do
not exist yet, so no example is drawn at such a threshold's edge.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from hingedplate.cli import main as cli_main

CONTRACT = (0, 2, 3, 4)

# one sampler per key: each draws a value from the key's whole range
SAMPLERS = {
    "sigma": lambda rnd: rnd.choice([0.0, 0.999, rnd.uniform(0.0, 0.999)]),
    "ell": lambda rnd: 10.0 ** rnd.uniform(-8.0, 6.0),
    "alpha": lambda rnd: 10.0 ** rnd.uniform(-9.0, 0.0),
    "beta": lambda rnd: 10.0 ** rnd.uniform(0.0, 100.0),
}


def draw_config(rnd: random.Random, small_grid: bool) -> dict:
    """One to three keys of SAMPLERS, plus a small grid when asked."""
    cfg = {key: SAMPLERS[key](rnd) for key in rnd.sample(sorted(SAMPLERS), rnd.randint(1, 3))}
    if small_grid:
        modes, profiles = rnd.randint(1, 6), rnd.randint(1, 5)
        cfg.update(n_modes_x=modes, n_basis_y=profiles,
                   n_quad_x=2 * rnd.randint((modes + 1) // 2, 8),
                   n_quad_y=rnd.randint(profiles, 10))
    return cfg


def run_example(k: int, cfg: dict, tmp: Path, exits: Counter) -> list:
    """Run the three commands on cfg, counting each (command, exit) in exits;
    one line per outcome outside the contract."""
    path = tmp / f"config-{k}.json"
    path.write_text(json.dumps(cfg))
    found = []
    for command in (["solve"], ["optimize", "--seed", str(k)], ["certify", "--suite", "all"]):
        argv = command + ["--config", str(path), "--out", str(tmp / f"run-{k}-{command[0]}")]
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(argv)
        except Exception as exc:
            last = traceback.extract_tb(exc.__traceback__)[-1]
            rc = type(exc).__name__
            found.append(f"example {k}: {' '.join(command)}: {rc}: {exc} (at "
                         f"{Path(last.filename).name}:{last.lineno}); config {json.dumps(cfg)}")
        else:
            if rc not in CONTRACT:
                found.append(f"example {k}: {' '.join(command)}: exit {rc}; "
                             f"config {json.dumps(cfg)}")
        exits[command[0], rc] += 1
    return found


def fuzz(examples: int, seed: int, small_grids: bool = False):
    """(every outcome outside the contract in order, Counter of (command, exit))."""
    rnd = random.Random(seed)
    found, exits = [], Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(examples):
            found += run_example(k, draw_config(rnd, small_grids), Path(tmp), exits)
    return found, exits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--examples", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small-grids", action="store_true",
                        help="draw a small grid for each example")
    args = parser.parse_args(argv)
    found, exits = fuzz(args.examples, args.seed, args.small_grids)
    for line in found:
        print(line)
    for (command, rc), n in sorted(exits.items(), key=str):
        print(f"{command}: exit {rc}: {n}")
    print(f"{args.examples} examples, {len(found)} outside exits {list(CONTRACT)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
