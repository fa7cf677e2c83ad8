"""Spans around the calls into dkp5's public functions, for the traced run.

The benchmark does not touch the program's source.  Instead, for each
function in ``LAYERS`` it replaces the name in every ``dkp5`` module that
binds it (``dkp5.inversion.compute_currents_grid``, ``dkp5.cli.load_grid``,
...), which is the name each caller looks up at call time.  A wrapper
records a span (name, start, end, parent, op id) and, where the layer has
them, counts taken from the call's arguments or result.  Spans stay in
memory until the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans (the calls are serial, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


@dataclass(frozen=True)
class Layer:
    """One traced public function.

    ``phase`` is "op" for functions timed inside the measured operations
    and "setup" for the input generators.  ``count`` maps (args, kwargs,
    result) to {metric name: value}; the values are summed per op.
    """

    name: str
    module: str
    phase: str
    counts: tuple = ()
    count: object = None

    @property
    def func(self):
        return self.name.rsplit(".", 1)[1]


def _once(metric):
    return lambda a, k, r: {metric: 1}


LAYERS = (
    Layer("cli.main", "dkp5.cli", "op"),
    Layer("bilinears.compute_currents_grid", "dkp5.bilinears", "op",
          ("bilinears.compute_currents_grid.points",),
          lambda a, k, r: {"bilinears.compute_currents_grid.points":
                           _arg(a, k, 1, "grid").n_points}),
    Layer("bilinears.compute_currents", "dkp5.bilinears", "op",
          ("bilinears.compute_currents.calls",), _once("bilinears.compute_currents.calls")),
    Layer("bilinears.current_set_to_dict", "dkp5.bilinears", "op"),
    Layer("bilinears.fierz_residual", "dkp5.bilinears", "op",
          ("bilinears.fierz_residual.calls",), _once("bilinears.fierz_residual.calls")),
    Layer("inversion.invert_pipeline", "dkp5.inversion", "op",
          ("inversion.unmasked_fraction",),
          lambda a, k, r: {"inversion.unmasked_fraction":
                           1.0 - float(r[0].singular_mask.mean())}),
    Layer("inversion.invert_potential_full", "dkp5.inversion", "op"),
    Layer("inversion.gauge_term", "dkp5.inversion", "op"),
    Layer("inversion.field_strength_from_potential", "dkp5.inversion", "op"),
    Layer("inversion.field_strength_bilinear", "dkp5.inversion", "op"),
    Layer("inversion.divergence_identities", "dkp5.inversion", "op"),
    Layer("inversion.reduced_system_residuals", "dkp5.inversion", "op"),
    Layer("grids.load_grid", "dkp5.grids", "op",
          ("grids.load_grid.bytes",),
          lambda a, k, r: {"grids.load_grid.bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    Layer("grids.store_grid", "dkp5.grids", "op",
          ("grids.store_grid.bytes",),
          lambda a, k, r: {"grids.store_grid.bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    Layer("grids.stencil_derivative", "dkp5.grids", "op",
          ("grids.stencil_derivative.calls",), _once("grids.stencil_derivative.calls")),
    Layer("reports.entry_from_values", "dkp5.reports", "op",
          ("reports.entry_from_values.calls", "reports.failed_entries"),
          lambda a, k, r: {"reports.entry_from_values.calls": 1,
                           "reports.failed_entries": int(not r["pass"])}),
    Layer("reports.write_report", "dkp5.reports", "op"),
    Layer("words.word_reduction_sweep", "dkp5.words", "op",
          ("words.words_checked", "words.mismatches"),
          lambda a, k, r: {"words.words_checked": r[0], "words.mismatches": r[1]}),
    Layer("algebra.verify_algebra_identities", "dkp5.algebra", "op"),
    Layer("algebra.enumerate_basis", "dkp5.algebra", "op"),
    Layer("planewave.manufacture_plane_wave", "dkp5.planewave", "setup"),
    Layer("planewave.random_fourier_field", "dkp5.planewave", "setup"),
)

#: Per-op figures the benchmark measures itself rather than through a wrapper:
#: the bytes an op writes, and max |A_full - A*| of the inversion.
RUNNER_METRICS = {
    "cli.output_bytes": "bytes",
    "inversion.potential_error": "1",
}


def per_layer_metrics():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = {}
    for layer in LAYERS:
        out[layer.name + ".self_s"] = "s"
        for name in layer.counts:
            out[name] = "bytes" if name.endswith(".bytes") else (
                "ratio" if name.endswith("_fraction") else "count")
    out.update(RUNNER_METRICS)
    return out


@dataclass
class Tracer:
    """Spans and counts of one run, kept in memory."""

    spans: list = field(default_factory=list)
    counts: list = field(default_factory=list)
    op_id: str | None = None
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [layer.name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if layer.count is not None:
                for name, value in layer.count(args, kwargs, result).items():
                    self.counts.append((self.op_id, name, value))
            return result

        return traced

    def install(self):
        """Wrap every LAYERS function at each dkp5 name bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "dkp5" or n.startswith("dkp5.")]
        for layer in LAYERS:
            original = getattr(importlib.import_module(layer.module), layer.func)
            wrapped = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def record(self, op_id, name, value):
        self.counts.append((op_id, name, value))

    def self_times(self):
        """{(op id, span name): summed self seconds}."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = {}
        for (name, _, _, _, op_id), seconds in zip(self.spans, own):
            out[(op_id, name)] = out.get((op_id, name), 0.0) + seconds
        return out

    def summary(self, op_ids, setup_ids):
        """Per-layer metrics: median self time and the count per op.

        Returns (metrics, inconsistent) where ``inconsistent`` names every
        count that differed between two ops of the run.
        """
        selfs = self.self_times()
        totals = {}
        for op_id, name, value in self.counts:
            totals[(op_id, name)] = totals.get((op_id, name), 0) + value
        metrics = {}
        inconsistent = []
        for layer in LAYERS:
            units = op_ids if layer.phase == "op" else setup_ids
            metrics[layer.name + ".self_s"] = statistics.median(
                selfs.get((u, layer.name), 0.0) for u in units)
            for name in layer.counts:
                values = {totals.get((u, name), 0) for u in units}
                if len(values) > 1:
                    inconsistent.append(name)
                metrics[name] = min(values)
        for name in RUNNER_METRICS:
            values = [totals[(u, name)] for u in op_ids if (u, name) in totals]
            if len(set(values)) > 1:
                inconsistent.append(name)
            metrics[name] = values[0] if values else 0
        return metrics, inconsistent

    def dump(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans
            ],
            "counts": [{"op": o, "name": n, "value": v} for o, n, v in self.counts],
        }
