"""Result serialization: CSV field/trace dumps, certification JSON, manifests.

All writers format floats with repr so identical inputs give byte-identical
files; the run manifest is the one record that carries wall-clock time and
is therefore excluded from any byte-level comparison.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import PlateConfig
from .grid import QuadratureGrid
from .optimize import OptimizationTrace


def _fmt(v) -> str:
    return repr(float(v))


def write_grid_csv(path, grid: QuadratureGrid, values: np.ndarray,
                   value_name: str = "value") -> None:
    """Node dump with columns x, y, <value_name>; x-major node order."""
    X, Y = grid.meshgrid()
    vals = np.asarray(values).reshape(grid.shape)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", value_name])
        for xi, yi, vi in zip(X.ravel(), Y.ravel(), vals.ravel()):
            writer.writerow([_fmt(xi), _fmt(yi), _fmt(vi)])


def read_density_csv(path, grid: QuadratureGrid) -> np.ndarray:
    """Read a density dump back; nodes must match the grid exactly."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != 3 or header[:2] != ["x", "y"]:
            raise ValueError(f"density file {path} must have columns x, y, <value>")
        rows = [(float(a), float(b), float(c)) for a, b, c in reader]
    nx, ny = grid.shape
    if len(rows) != nx * ny:
        raise ValueError(f"density file has {len(rows)} rows, grid needs {nx * ny}")
    data = np.asarray(rows)
    X, Y = grid.meshgrid()
    if not (np.allclose(data[:, 0], X.ravel(), atol=1e-12)
            and np.allclose(data[:, 1], Y.ravel(), atol=1e-12)):
        raise ValueError("density file nodes do not match the configured grid")
    return data[:, 2].reshape(grid.shape)


def write_vector_csv(path, name: str, values: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", name])
        for i, v in enumerate(np.asarray(values).ravel()):
            writer.writerow([i, _fmt(v)])


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
    """Per-sweep eigensolve diagnostics, one row per trace record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "iterations", "residual", "gap"])
        for rec in trace.records:
            writer.writerow([
                rec.iteration, rec.solve_iterations, _fmt(rec.residual), _fmt(rec.gap),
            ])


def write_contours_csv(path, levels, polylines_per_level) -> None:
    """Iso-level polylines: one row per vertex, keyed by level and polyline."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "polyline", "vertex", "x", "y"])
        for level, polylines in zip(levels, polylines_per_level):
            for pid, line in enumerate(polylines):
                for vid, (px, py) in enumerate(line):
                    writer.writerow([_fmt(level), pid, vid, _fmt(px), _fmt(py)])


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
