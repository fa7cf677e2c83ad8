#!/usr/bin/env python3
"""Traced memory, in bytes per point, and wall time of each stage of the inversion pipeline.

Runs ``invert_pipeline`` with a reference potential on a manufactured
plane wave, once with finite differences and once with the closed-form
gradient, under ``tracemalloc`` (numpy reports its buffers to it).  The
input grid is made before tracing starts and is not counted; the
closed-form gradient is made inside the traced window, as the CLI does.
``dkp invert`` frees its input grid once the derivative pass has read it,
before the stage that sets the peak, so the pipeline peak stands for
that command's peak RSS less the interpreter's (and the allocator's
slack).
Every stage that the pipeline calls by name in ``dkp5.inversion`` is
wrapped, and each call prints one row: the traced memory when the stage
starts, its peak while it runs, and the memory when it returns, each
divided by the number of points.  Nested stages are indented under their
caller.  After each memory table it prints each stage's wall time (nested
stages included, summed over the stage's calls in one run), the median
of ``REPEATS`` untraced runs, and that of the whole pipeline.

    PYTHONPATH=src python scripts/stage_memory.py --extent 8
"""

import argparse
import contextlib
import functools
import statistics
import time
import tracemalloc

import dkp5.inversion
from dkp5 import (
    PlaneWaveSpec,
    build_representation,
    invert_pipeline,
    manufacture_plane_wave,
    on_shell_momentum,
    plane_wave_gradient,
)

#: The names that the pipeline and its stages look up in dkp5.inversion.
STAGES = (
    "lattice_currents", "_shared_derivative_bilinears", "invert_potential_full",
    "invert_potential_gauge_fixed", "gauge_term", "field_strength_bilinear",
    "_solution_entries", "divergence_identities", "h_elimination_residual", "reduced_state",
    "reduced_system_residuals", "field_strength_from_potential", "_pipeline_checks",
)

M, E, A = 1.0, 1.0, (0.3, -0.2, 0.1, 0.25)

#: Untraced pipeline runs per derivative mode behind each median wall time.
REPEATS = 5


class StageTrace:
    """Rows (depth, name, start, peak, end) in bytes, one per wrapped call.

    tracemalloc keeps one peak, so each call resets it on entry after
    handing the peak reached so far to every open caller."""

    def __init__(self):
        self.rows, self._open = [], []

    def _lift(self):
        peak = tracemalloc.get_traced_memory()[1]
        for row in self._open:
            row[3] = max(row[3], peak)

    def wrap(self, name, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._lift()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            row = [len(self._open), name, start, start, start]
            self.rows.append(row)
            self._open.append(row)
            try:
                return func(*args, **kwargs)
            finally:
                self._lift()
                self._open.pop()
                row[4] = tracemalloc.get_traced_memory()[0]
        return traced


class StageTimer:
    """Per run, the wall time of each wrapped stage summed over its calls,
    and its depth under the open stages at its first call."""

    def __init__(self):
        self.runs, self.depth, self._open = [], {}, 0

    def wrap(self, name, func):
        @functools.wraps(func)
        def timed(*args, **kwargs):
            run = self.runs[-1]
            run.setdefault(name, 0.0)
            self.depth.setdefault(name, self._open)
            self._open += 1
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                run[name] += time.perf_counter() - start
                self._open -= 1
        return timed


@contextlib.contextmanager
def wrapped_stages(wrap):
    """The pipeline's stages in dkp5.inversion replaced by wrap(name, stage)."""
    saved = {name: getattr(dkp5.inversion, name) for name in STAGES if hasattr(dkp5.inversion, name)}
    for name, func in saved.items():
        setattr(dkp5.inversion, name, wrap(name, func))
    try:
        yield
    finally:
        for name, func in saved.items():
            setattr(dkp5.inversion, name, func)


def trace_pipeline(rep, spec, grid, analytic):
    """(rows, pipeline peak in bytes) of one traced pipeline run."""
    trace = StageTrace()
    with wrapped_stages(trace.wrap):
        tracemalloc.start()
        try:
            dphi = plane_wave_gradient(spec, grid) if analytic else None
            trace._lift()
            tracemalloc.reset_peak()
            invert_pipeline(rep, grid, M, E, dphi=dphi, A_ref=A)
            peak = max(tracemalloc.get_traced_memory()[1], max((r[3] for r in trace.rows), default=0))
        finally:
            tracemalloc.stop()
    return trace.rows, peak


def time_pipeline(rep, spec, grid, analytic):
    """(rows, whole) of ``REPEATS`` untraced pipeline runs: rows (depth, name,
    median s) of each stage in first-call order, whole the median s of the
    whole pipeline."""
    timer, whole = StageTimer(), []
    with wrapped_stages(timer.wrap):
        for _ in range(REPEATS):
            timer.runs.append({})
            start = time.perf_counter()
            invert_pipeline(rep, grid, M, E, dphi=plane_wave_gradient(spec, grid) if analytic else None, A_ref=A)
            whole.append(time.perf_counter() - start)
    rows = [(timer.depth[name], name, statistics.median(run[name] for run in timer.runs)) for name in timer.runs[0]]
    return rows, statistics.median(whole)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--extent", type=int, default=8, help="points along each axis (>= 3)")
    args = parser.parse_args()

    p = on_shell_momentum((0.3, 0.2, -0.1), M, E, A)
    spec = PlaneWaveSpec(p=p, A=A, m=M, e=E, amplitude=0.8 + 0.3j)
    grid = manufacture_plane_wave(spec, (args.extent,) * 4, (0.15,) * 4)
    rep = build_representation("float")
    n = grid.n_points
    for label, analytic in (("finite differences", False), ("closed form", True)):
        rows, peak = trace_pipeline(rep, spec, grid, analytic)
        print(f"{label}, {args.extent}^4 = {n} points, B per point (input grid not counted)")
        print(f"  {'stage':<34}{'start':>8}{'peak':>8}{'end':>8}")
        for depth, name, start, top, end in rows:
            print(f"  {'  ' * depth + name:<34}{start / n:8.0f}{top / n:8.0f}{end / n:8.0f}")
        print(f"  {'pipeline peak':<34}{'':>8}{peak / n:8.0f}")
        rows, whole = time_pipeline(rep, spec, grid, analytic)
        print(f"  {'stage':<34}{'ms':>8}   (wall time, median of {REPEATS} untraced runs)")
        for depth, name, seconds in rows:
            print(f"  {'  ' * depth + name:<34}{seconds * 1e3:8.3f}")
        print(f"  {'whole pipeline':<34}{whole * 1e3:8.3f}")
        print()


if __name__ == "__main__":
    main()
