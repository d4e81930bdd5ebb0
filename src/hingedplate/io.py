"""Result serialization: CSV field/trace dumps, certification JSON, manifests.

All writers format floats with repr so identical inputs give byte-identical
files; the run manifest is the one record that carries wall-clock time and
is therefore excluded from any byte-level comparison.  Rows are what the
csv module's default dialect writes for those reprs: comma-separated,
unquoted, CRLF line ends.  The field writers stream their rows a bounded
piece at a time, never as one whole-file string, and take the reprs of
many floats from one list repr.  The grid writer joins each block of rows
in C; the vector and contour writers build their rows by map over
str.format.
"""

from __future__ import annotations

import csv
import json
import time
from itertools import chain, count, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import InputError, PlateConfig
from .grid import QuadratureGrid
from .optimize import OptimizationTrace


def _fmt(v) -> str:
    return repr(float(v))


def write_grid_csv(path, grid: QuadratureGrid, values: np.ndarray,
                   value_name: str) -> None:
    """Node dump with columns x, y, <value_name>; x-major node order.

    Rows are what the csv module's default dialect writes for the repr of
    each value: comma-separated, unquoted, CRLF line ends.  Each node
    coordinate is formatted once, not once per row, and a block of x-rows
    at a time is written as one string: its four columns of pieces (x, the
    ",y," prefixes, the values from one list repr, the line ends) are
    interleaved by slice assignment and joined in C.
    """
    block = 32  # x-rows per joined string; bounds the memory per write
    vals = np.asarray(values, dtype=float).reshape(grid.shape)
    xs = list(map(repr, grid.nodes_x.tolist()))
    ys = [f",{y!r}," for y in grid.nodes_y.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x", "y", value_name])
        for start in range(0, vals.shape[0], block):
            rows = vals[start:start + block]
            pieces = [""] * (4 * rows.size)
            pieces[0::4] = [x for x in xs[start:start + len(rows)] for _ in ys]
            pieces[1::4] = ys * len(rows)
            pieces[2::4] = repr(rows.ravel().tolist())[1:-1].split(", ")
            pieces[3::4] = ["\r\n"] * rows.size
            fh.write("".join(pieces))


def read_density_csv(path, grid: QuadratureGrid) -> np.ndarray:
    """Read a density dump back; nodes must match the grid exactly.  Any row
    but three numbers, a blank line or a non-UTF-8 byte too, fails by line."""
    with open(path, "r", newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header row
        if len(header) != 3 or header[:2] != ["x", "y"]:
            raise InputError(f"density file {path} must have columns x, y, <value>")
        rows = [_density_row(path, reader.line_num, row) for row in reader]
    nx, ny = grid.shape
    if len(rows) != nx * ny:
        raise InputError(f"density file {path} has {len(rows)} rows, grid needs {nx * ny}")
    data = np.asarray(rows)
    X, Y = grid.meshgrid()
    if not (np.allclose(data[:, 0], X.ravel(), rtol=0.0, atol=1e-12)
            and np.allclose(data[:, 1], Y.ravel(), rtol=0.0, atol=1e-12)):
        raise InputError(f"density file {path}: nodes do not match the configured grid")
    return data[:, 2].reshape(grid.shape)


def _density_row(path, line: int, row: list) -> tuple:
    if len(row) == 3:
        try:
            return tuple(map(float, row))
        except ValueError:
            pass
    raise InputError(f"density file {path}, line {line}: expected 3 numbers, got {row!r}")


def write_vector_csv(path, name: str, values: np.ndarray) -> None:
    """Columns index, <name>: one row per entry of the flattened values,
    whose reprs come from one list repr."""
    reprs = repr(np.asarray(values, dtype=float).ravel().tolist())[1:-1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["index", name])
        if reprs:  # an empty vector has no rows; "".split(", ") would give one
            fh.writelines(map("{},{}\r\n".format, count(), reprs.split(", ")))


def write_trace_csv(path, trace: OptimizationTrace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "lambda1", "threshold_t", "S_measure",
                         "density_change_measure"])
        for rec in trace.records:
            writer.writerow([
                rec.iteration, _fmt(rec.lambda1), _fmt(rec.threshold_t),
                _fmt(rec.sublevel_measure), _fmt(rec.density_change_measure),
            ])


def write_eigensolve_csv(path, trace: OptimizationTrace) -> None:
    """Per-sweep eigensolve diagnostics, one row per trace record; the gap
    cell is empty at dimension 1, which has no second eigenvalue."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "iterations", "residual", "gap"])
        for rec in trace.records:
            gap = _fmt(rec.gap) if np.isfinite(rec.gap) else ""
            writer.writerow([rec.iteration, rec.solve_iterations, _fmt(rec.residual), gap])


def write_contours_csv(path, levels, polylines_per_level) -> None:
    """Iso-level polylines: one row per vertex, keyed by level and polyline.

    Columns level, polyline, vertex, x, y; each polyline's rows are written
    by one map over its vertices.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("level,polyline,vertex,x,y\r\n")
        for level, polylines in zip(levels, polylines_per_level):
            row = _fmt(level) + ",{},{},{},{}\r\n"
            for pid, line in enumerate(polylines):
                # x0, y0, x1, ... formatted by one list repr
                xy = repr(list(map(float, chain.from_iterable(line))))[1:-1].split(", ")
                fh.writelines(map(row.format, repeat(pid), count(), xy[0::2], xy[1::2]))


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reports_json(path, reports) -> None:
    write_json(path, [r.as_dict() for r in reports])


class RunManifest:
    """Append-only record of one CLI run and the files it produced."""

    def __init__(self, command: str, cfg: PlateConfig, out_dir):
        self.command = command
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.outputs = []
        self.summaries = {}
        self._t0 = time.monotonic()

    def register(self, path) -> Path:
        path = Path(path)
        self.outputs.append(str(path.relative_to(self.out_dir)))
        return path

    def add_summary(self, key: str, value) -> None:
        self.summaries[key] = value

    def write(self) -> Path:
        record = {
            "command": self.command,
            "config": self.cfg.as_dict(),
            "outputs": sorted(self.outputs),
            "wall_clock_seconds": time.monotonic() - self._t0,
            "version": __version__,
            "summaries": self.summaries,
        }
        path = self.out_dir / "manifest.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path
