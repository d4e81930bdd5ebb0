"""Span recorder and the probes that wrap hingedplate's public functions.

The probes change nothing inside the package: each public function is
replaced, in every loaded ``hingedplate`` module that holds it (the module
that defines it and each module that imported it by name), with a wrapper
that records a span and the layer's work counts.  Methods are wrapped on
their class.  A session process installs the probes once and never removes
them.

A span records its name, start, end, parent span, thread id and the
workload iteration it belongs to.  Spans stay in memory until the iteration
ends.  A span's self time is its duration minus the part of that interval
its child spans cover.  Work started on a thread with no open span (the
start thread pool of ``optimize``) is parented to the command span that is
open on the main thread.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

# Per-layer metrics reported by a traced run: name -> unit.  Spans are named
# "<module>.<function>", so "<span>.busy_s" is the summed duration of that
# span and "<span>.self_s" the part not covered by child spans.
PER_LAYER = {
    "cli.solve.self_s": "s",
    "cli.optimize.self_s": "s",
    "cli.certify.self_s": "s",
    "cli.optimize.start_overlap": "ratio",
    "optimize.PlateSystem.calls": "count",
    "optimize.PlateSystem.busy_s": "s",
    "optimize.minimize.calls": "count",
    "optimize.minimize.busy_s": "s",
    "optimize.minimize.self_s": "s",
    "optimize.minimize.sweeps": "count",
    "optimize.minimize.improving_sweep_ratio": "ratio",
    "optimize.rearrange.calls": "count",
    "optimize.rearrange.busy_s": "s",
    "optimize.rearrange.self_s": "s",
    "assembly.assemble_weighted_mass.calls": "count",
    "assembly.assemble_weighted_mass.busy_s": "s",
    "assembly.assemble_weighted_mass.computed_flops": "flop",
    "assembly.assemble_weighted_mass.computed_bytes": "B",
    "assembly.StiffnessFactor.solve.calls": "count",
    "assembly.StiffnessFactor.solve.busy_s": "s",
    "eigensolve.solve_first.calls": "count",
    "eigensolve.solve_first.busy_s": "s",
    "eigensolve.solve_first.self_s": "s",
    "eigensolve.solve_first.max_residual": "ratio",
    "eigensolve.solve_first.min_gap": "ratio",
    "basis.evaluate_on_grid.calls": "count",
    "basis.evaluate_on_grid.busy_s": "s",
    "levelsets.iso_contours.calls": "count",
    "levelsets.iso_contours.busy_s": "s",
    "levelsets.iso_contours.cells": "count",
    "io.write_grid_csv.busy_s": "s",
    "io.write_contours_csv.busy_s": "s",
    "io.busy_s": "s",
    "io.bytes_written": "B",
    "series.certify_series.busy_s": "s",
    "series.certify_series.computed_sin_evaluations": "count",
    "green.certify_green.busy_s": "s",
    "green.certify_green.self_s": "s",
    "polarization.certify_polarization.busy_s": "s",
    "polarization.certify_polarization.self_s": "s",
    "polarization.certify_duality.busy_s": "s",
    "polarization.certify_duality.self_s": "s",
    "certify.claims": "count",
    "certify.claims_passed": "count",
    "trace.overhead_ratio": "ratio",
}

BUSY_NOTE = ("busy_s sums span wall time; under the start thread pool of "
             "optimize it includes time a start spent waiting for a core")

# write_reports_json is left out: it writes through write_json, which is
# probed, so its bytes would count twice.
_IO_WRITERS = ("write_grid_csv", "write_contours_csv", "write_vector_csv",
               "write_trace_csv", "write_json")


class SpanRecorder:
    """In-memory spans and counters of one workload iteration."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = {}
        self.minima = {}
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else self.root
        stack.append((sid, name, parent, time.perf_counter()))
        return sid

    def end(self) -> None:
        sid, name, parent, start = self._stack().pop()
        span = {"id": sid, "name": name, "start": start, "end": time.perf_counter(),
                "parent": parent, "thread": threading.get_ident(),
                "iteration": self.iteration}
        with self._lock:
            self.spans.append(span)

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def keep_max(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(value, self.maxima.get(key, value))

    def keep_min(self, key: str, value: float) -> None:
        with self._lock:
            self.minima[key] = min(value, self.minima.get(key, value))

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(s["id"], ())):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def layer_metrics(self) -> dict:
        """Every PER_LAYER metric of this iteration except the overhead ratio."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        selfs = self.self_times()
        for s in self.spans:
            calls[s["name"]] += 1
            busy[s["name"]] += s["end"] - s["start"]
            own[s["name"]] += selfs[s["id"]]
        found = {}
        for name in busy:
            found[f"{name}.calls"] = calls[name]
            found[f"{name}.busy_s"] = busy[name]
            found[f"{name}.self_s"] = own[name]
        found["io.busy_s"] = sum(busy[f"io.{w}"] for w in _IO_WRITERS)
        found.update(self.counts)
        found.update(self.maxima)
        found.update(self.minima)
        compared = self.counts.get("optimize.minimize.compared", 0.0)
        found["optimize.minimize.improving_sweep_ratio"] = (
            self.counts.get("optimize.minimize.improving", 0.0) / compared
            if compared else 0.0)
        wall = busy.get("cli.optimize", 0.0)
        found["cli.optimize.start_overlap"] = (
            busy.get("optimize.minimize", 0.0) / wall if wall else 0.0)
        return {key: float(found.get(key, 0.0))
                for key in PER_LAYER if key != "trace.overhead_ratio"}


def _count_minimize(rec, args, kwargs, trace):
    lams = [r.lambda1 for r in trace.records]
    rec.add("optimize.minimize.sweeps", len(lams))
    rec.add("optimize.minimize.improving", sum(b < a for a, b in zip(lams, lams[1:])))
    rec.add("optimize.minimize.compared", max(len(lams) - 1, 0))


def _count_mass(rec, args, kwargs, result):
    basis, grid = args[0], args[1]
    dim = basis.dimension
    nodes = grid.shape[0] * grid.shape[1]
    # computed from array sizes: the (phi * w) @ phi.T product and the dense
    # (dimension, nodes) float64 basis table it reads
    rec.add("assembly.assemble_weighted_mass.computed_flops", 2.0 * dim * dim * nodes)
    rec.keep_max("assembly.assemble_weighted_mass.computed_bytes", 8.0 * dim * nodes)


def _count_solve_first(rec, args, kwargs, pair):
    rec.keep_max("eigensolve.solve_first.max_residual", pair.residual)
    rec.keep_min("eigensolve.solve_first.min_gap", pair.gap)


def _count_contours(rec, args, kwargs, result):
    x, y = args[0], args[1]
    rec.add("levelsets.iso_contours.cells", (len(x) - 1) * (len(y) - 1))


def _count_io(rec, args, kwargs, result):
    rec.add("io.bytes_written", os.path.getsize(args[0]))


def _count_series(rec, args, kwargs, result):
    from hingedplate.series import certify_series

    bound = inspect.signature(certify_series).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    # computed: plain, alternating and envelope sums each build one
    # (grid_points, terms) sine table per coefficient family
    rec.add("series.certify_series.computed_sin_evaluations",
            3 * len(a["families"]) * a["grid_points"] * a["terms"])


def _count_claims(rec, args, kwargs, reports):
    rec.add("certify.claims", len(reports))
    rec.add("certify.claims_passed", sum(bool(r.passed) for r in reports))


def _wrap(rec, name, fn, after=None):
    def probe(*args, **kwargs):
        rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end()
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    probe.__wrapped__ = fn  # lets _count_series read the real signature
    return probe


def install(rec: SpanRecorder) -> None:
    """Wrap the probed functions at every import site."""
    import hingedplate.assembly as assembly
    import hingedplate.basis as basis
    import hingedplate.certify as certify
    import hingedplate.cli  # noqa: F401  (import sites are patched below)
    import hingedplate.eigensolve as eigensolve
    import hingedplate.green as green
    import hingedplate.io as io
    import hingedplate.levelsets as levelsets
    import hingedplate.optimize as optimize
    import hingedplate.polarization as polarization
    import hingedplate.series as series

    functions = [
        (optimize, "minimize", _count_minimize),
        (optimize, "rearrange", None),
        (assembly, "assemble_weighted_mass", _count_mass),
        (eigensolve, "solve_first", _count_solve_first),
        (basis, "evaluate_on_grid", None),
        (levelsets, "iso_contours", _count_contours),
        (series, "certify_series", _count_series),
        (green, "certify_green", None),
        (polarization, "certify_polarization", None),
        (polarization, "certify_duality", None),
        (certify, "run_suite", _count_claims),
    ] + [(io, w, _count_io) for w in _IO_WRITERS]
    methods = [
        (optimize.PlateSystem, "__init__", "optimize.PlateSystem"),
        (assembly.StiffnessFactor, "solve", "assembly.StiffnessFactor.solve"),
    ]

    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "hingedplate" or key.startswith("hingedplate."))]
    for home, attr, after in functions:
        original = getattr(home, attr)
        layer = home.__name__.rsplit(".", 1)[-1]
        probe = _wrap(rec, f"{layer}.{attr}", original, after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, probe)
    for cls, attr, name in methods:
        setattr(cls, attr, _wrap(rec, name, cls.__dict__[attr]))
