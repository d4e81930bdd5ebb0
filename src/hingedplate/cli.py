"""Command line surface: solve | optimize | certify.

Exit codes: 0 success; 2 invalid input only: an InputError from PlateConfig,
load_config, read_density_csv, a density file's admissibility check or the
--starts/--seed flags, all raised before the output directory is made, or an
OSError (an unreadable path, an unwritable --out); 3 a SolverError,
AssemblyError or AnalysisError, an outcome of an accepted input; 4 a failed
certification claim.  Any other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .analysis import analyze_optimum
from .assembly import AssemblyError
from .certify import SUITES, run_suite
from .config import InputError, PlateConfig, load_config
from .eigensolve import SolverError
from .io import (
    RunManifest,
    read_density_csv,
    write_contours_csv,
    write_grid_csv,
    write_json,
    write_reports_json,
    write_trace_csv,
    write_vector_csv,
)
from .levelsets import iso_contours, level_bands
from .optimize import (
    AnalysisError,
    DensityField,
    PlateSystem,
    minimize,
    random_admissible_density,
    strip_density,
    uniform_density,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATION = 4


def _load_cfg(args) -> PlateConfig:
    if args.config is None:
        return PlateConfig()
    return load_config(args.config)


def _resolve_density(spec: str, system: PlateSystem) -> DensityField:
    if spec == "uniform":
        return uniform_density(system)
    values = read_density_csv(spec, system.grid)
    try:
        return DensityField(system, values)
    except ValueError as exc:  # the file's values are not an admissible density
        raise InputError(f"density file {spec}: {exc}") from exc


def _write_field_outputs(manifest, out, system, pair):
    u = system.grid_values(pair.u)
    write_vector_csv(manifest.register(out / "coefficients.csv"), pair.u)
    levels = level_bands(u, 10)
    write_contours_csv(manifest.register(out / "levelsets.csv"), levels,
                       iso_contours(system.grid.nodes_x, system.grid.nodes_y, u, levels))


def cmd_solve(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    manifest = RunManifest("solve", cfg, out)
    system = PlateSystem(cfg)
    density = _resolve_density(args.density, system)
    out.mkdir(parents=True, exist_ok=True)
    pair = system.solve_density(density)
    _write_field_outputs(manifest, out, system, pair)
    write_json(manifest.register(out / "eigenpair.json"), {
        "lambda1": pair.lambda1,
        "residual": pair.residual,
        # null at dimension 1, which has no second eigenvalue
        "relative_gap": pair.gap if np.isfinite(pair.gap) else None,
        "normalization": "weighted L2, sqrt(p) u has unit norm",
    })
    manifest.add_summary("lambda1", pair.lambda1)
    manifest.write()
    print(f"lambda1 = {pair.lambda1:.12g}  (residual {pair.residual:.2e})")
    return EXIT_OK


def cmd_optimize(args) -> int:
    if args.starts < 1:
        raise InputError(f"--starts must be at least 1, got {args.starts}")
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    cfg = _load_cfg(args)
    out = Path(args.out)
    manifest = RunManifest("optimize", cfg, out)
    system = PlateSystem(cfg)

    named = {"uniform": partial(uniform_density, system),
             "left-heavy": partial(strip_density, system, "left"),
             "right-heavy": partial(strip_density, system, "right")}
    n_random = 0
    if args.init == "multistart":
        starts = [(name, build()) for name, build in list(named.items())[: args.starts]]
        n_random = args.starts - len(starts)
    elif args.init in named:
        starts = [(args.init, named[args.init]())]
    elif args.init == "random":
        starts, n_random = [], 1
    else:
        starts = [("file", _resolve_density(args.init, system))]
    if n_random:
        # built only here: its first use imports numpy.random, which no
        # named or file start needs
        rng = np.random.default_rng(args.seed)
        starts += [(f"random-{k}", random_admissible_density(system, rng))
                   for k in range(len(starts), len(starts) + n_random)]

    traces = {}
    for name, density in starts:
        sub = out / name
        sub.mkdir(parents=True, exist_ok=True)
        trace = traces[name] = minimize(system, density)
        write_trace_csv(manifest.register(sub / "trace.csv"), trace)
        write_grid_csv(manifest.register(sub / "final_density.csv"),
                       system.grid, trace.final_density.values)
        _write_field_outputs(manifest, sub, system, trace.final_eigenpair)

    record = analyze_optimum(system, traces)
    write_json(manifest.register(out / "optimize_summary.json"), record)
    best = record["best_start"]
    lambda_best = record["final_lambda_per_start"][best]
    manifest.add_summary("lambda_best", lambda_best)
    manifest.write()
    print(f"best lambda1 = {lambda_best:.12g} ({best}); "
          f"spread {record['cross_start_relative_spread']:.2e}; "
          f"symmetry {record['symmetry_verdict']}")
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out)
    manifest = RunManifest("certify", cfg, out)
    reports = run_suite(args.suite, cfg)
    out.mkdir(parents=True, exist_ok=True)
    write_reports_json(manifest.register(out / f"certify_{args.suite}.json"), reports)
    failures = [r.claim_id for r in reports if not r.passed]
    manifest.add_summary("claims", len(reports))
    manifest.add_summary("failures", failures)
    manifest.write()
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.claim_id}: margin {r.min_margin:.3e} ({r.resolution})")
    return EXIT_OK if not failures else EXIT_CERTIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hingedplate",
        description="Partially hinged plate: eigensolver, density optimizer, "
                    "numerical certifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one eigenproblem")
    p_solve.add_argument("--config", default=None, help="JSON config path")
    p_solve.add_argument("--out", default="out", help="output directory")
    p_solve.add_argument("--density", default="uniform",
                         help="'uniform' or a density CSV path")
    p_solve.set_defaults(func=cmd_solve)

    p_opt = sub.add_parser("optimize", help="minimize lambda1 over densities")
    p_opt.add_argument("--config", default=None)
    p_opt.add_argument("--out", default="out")
    p_opt.add_argument("--init", default="multistart",
                       help="multistart | uniform | left-heavy | right-heavy | "
                            "random | density CSV path")
    p_opt.add_argument("--starts", type=int, default=4,
                       help="number of starts in multistart mode")
    p_opt.add_argument("--seed", type=int, default=0,
                       help="seed for random initial weights only")
    p_opt.set_defaults(func=cmd_optimize)

    p_cert = sub.add_parser("certify", help="run numerical certifications")
    p_cert.add_argument("--config", default=None)
    p_cert.add_argument("--out", default="out")
    p_cert.add_argument("--suite", default="all", choices=SUITES)
    p_cert.set_defaults(func=cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, AssemblyError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AnalysisError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
