"""Result serialization: CSV field/trace dumps, certification JSON, manifests.

All writers format floats with repr so identical inputs give byte-identical
files; the run manifest is the one record that carries wall-clock time and
is therefore excluded from any byte-level comparison.  Every CSV file goes
through one row assembler, `_write_csv`: a writer only builds its columns,
and the assembler writes what the csv module's default dialect would write
for their cells (comma-separated, unquoted, CRLF line ends).  It writes a
bounded block of rows at a time, never one whole-file string: the block's
float cells come from one list repr, and its cells, commas and line ends
are interleaved by slice assignment and joined in C.
"""

from __future__ import annotations

import csv
import json
import time
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .config import InputError, PlateConfig
from .grid import QuadratureGrid
from .optimize import OptimizationTrace

_BLOCK = 512  # rows per joined string; bounds the text held per write


def _reprs(values: np.ndarray) -> list:
    """The repr of each float, from one list repr."""
    return repr(values.tolist())[1:-1].split(", ") if values.size else []


def _write_csv(path, header, columns) -> None:
    """Write the header row, then row i of the cells at index i of every
    column: a float ndarray column is formatted by repr one block at a
    time, and any other column holds its cells as text."""
    width = 2 * len(columns)  # pieces per row: each cell, then "," or "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), _BLOCK):
            block = [col[start:start + _BLOCK] for col in columns]
            pieces = [","] * (width * len(block[0]))
            for k, cells in enumerate(block):
                pieces[2 * k::width] = _reprs(cells) if isinstance(cells, np.ndarray) else cells
            pieces[width - 1::width] = ["\r\n"] * len(block[0])
            fh.write("".join(pieces))


def write_grid_csv(path, grid: QuadratureGrid, values: np.ndarray,
                   value_name: str) -> None:
    """Node dump with columns x, y, <value_name>; x-major node order.  Each
    node coordinate is formatted once, not once per row."""
    vals = np.asarray(values, dtype=float).reshape(grid.shape)
    xs, ys = _reprs(grid.nodes_x), _reprs(grid.nodes_y)
    _write_csv(path, ["x", "y", value_name],
               [[x for x in xs for _ in ys], ys * len(xs), vals.ravel()])


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
    """Columns index, <name>: one row per entry of the flattened values."""
    vals = np.asarray(values, dtype=float).ravel()
    _write_csv(path, ["index", name], [list(map(str, range(vals.size))), vals])


def _field(records, name: str) -> np.ndarray:
    return np.array([getattr(rec, name) for rec in records], dtype=float)


def write_trace_csv(path, trace: OptimizationTrace) -> None:
    recs = trace.records
    _write_csv(path, ["iter", "lambda1", "threshold_t", "S_measure", "density_change_measure"],
               [[str(rec.iteration) for rec in recs]]
               + [_field(recs, name) for name in ("lambda1", "threshold_t",
                                                  "sublevel_measure", "density_change_measure")])


def write_eigensolve_csv(path, trace: OptimizationTrace) -> None:
    """Per-sweep eigensolve diagnostics, one row per trace record; the gap
    cell is empty at dimension 1, which has no second eigenvalue."""
    recs = trace.records
    gaps = _field(recs, "gap")
    _write_csv(path, ["iter", "iterations", "residual", "gap"], [
        [str(rec.iteration) for rec in recs], [str(rec.solve_iterations) for rec in recs],
        _field(recs, "residual"),
        [cell if finite else "" for cell, finite in zip(_reprs(gaps), np.isfinite(gaps))]])


def write_contours_csv(path, levels, polylines_per_level) -> None:
    """Iso-level polylines, columns level, polyline, vertex, x, y: one row
    per vertex.  Each level is formatted once, not once per vertex."""
    level_col, pid_col, vertex_col, xy = [], [], [], []
    for level, polylines in zip(_reprs(np.asarray(levels, dtype=float)), polylines_per_level):
        for pid, line in enumerate(polylines):
            level_col += [level] * len(line)
            pid_col += [str(pid)] * len(line)
            vertex_col += map(str, range(len(line)))
            xy += chain.from_iterable(line)
    xy = np.array(xy, dtype=float).reshape(-1, 2)
    _write_csv(path, ["level", "polyline", "vertex", "x", "y"],
               [level_col, pid_col, vertex_col, xy[:, 0], xy[:, 1]])


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
