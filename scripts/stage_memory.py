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
#: A name that dkp5.inversion lacks is skipped, so that the script also
#: measures a version of the package without that stage.
STAGES = (
    "lattice_currents", "_shared_derivative_bilinears", "invert_potential_full",
    "invert_potential_gauge_fixed", "gauge_term", "field_strength_bilinear",
    "_solution_entries", "divergence_identities", "h_elimination_residual", "reduced_state",
    "reduced_system_residuals", "field_strength_from_potential", "_pipeline_checks",
)

M, E, A = 1.0, 1.0, (0.3, -0.2, 0.1, 0.25)

#: Untraced pipeline runs per derivative mode behind each median wall time.
REPEATS = 5


class StageRecorder:
    """Rows [depth, name, start, peak, end], one per wrapped call in call
    order, depth the number of calls open when it starts.  While
    tracemalloc traces, start, peak and end are traced bytes; while it does
    not, start and end are perf_counter seconds.

    tracemalloc keeps one peak, so each reading hands the peak reached so
    far to every open call and then resets it."""

    def __init__(self):
        self.rows, self._open = [], []

    def _read(self):
        if not tracemalloc.is_tracing():
            return time.perf_counter()
        current, peak = tracemalloc.get_traced_memory()
        for row in self._open:
            row[3] = max(row[3], peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name, func):
        @functools.wraps(func)
        def recorded(*args, **kwargs):
            start = self._read()
            row = [len(self._open), name, start, start, start]
            self.rows.append(row)
            self._open.append(row)
            try:
                return func(*args, **kwargs)
            finally:
                row[4] = self._read()
                self._open.pop()
        return recorded


def run_pipeline(rep, spec, grid, analytic, traced=False):
    """The StageRecorder rows of one pipeline run, under tracemalloc when
    ``traced``: first the whole run's, then one per stage call.  The stages
    are wrapped before tracing starts, and the closed-form gradient is made
    just before the run, inside the traced window."""
    recorder = StageRecorder()
    whole = recorder.wrap("whole pipeline", invert_pipeline)
    saved = {name: getattr(dkp5.inversion, name) for name in STAGES if hasattr(dkp5.inversion, name)}
    for name, func in saved.items():
        setattr(dkp5.inversion, name, recorder.wrap(name, func))
    try:
        if traced:
            tracemalloc.start()
        whole(rep, grid, M, E, dphi=plane_wave_gradient(spec, grid) if analytic else None, A_ref=A)
    finally:
        if traced:
            tracemalloc.stop()
        for name, func in saved.items():
            setattr(dkp5.inversion, name, func)
    return recorder.rows


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
        (_, _, _, peak, _), *rows = run_pipeline(rep, spec, grid, analytic, traced=True)
        print(f"{label}, {args.extent}^4 = {n} points, B per point (input grid not counted)")
        print(f"  {'stage':<34}{'start':>8}{'peak':>8}{'end':>8}")
        for depth, name, start, top, end in rows:
            print(f"  {'  ' * (depth - 1) + name:<34}{start / n:8.0f}{top / n:8.0f}{end / n:8.0f}")
        print(f"  {'pipeline peak':<34}{'':>8}{peak / n:8.0f}")
        runs = [{} for _ in range(REPEATS)]  # {name: [depth, seconds over its calls]}, first-call order
        for run in runs:
            for depth, name, start, _, end in run_pipeline(rep, spec, grid, analytic):
                run.setdefault(name, [depth, 0.0])[1] += end - start
        print(f"  {'stage':<34}{'ms':>8}   (wall time, median of {REPEATS} untraced runs)")
        whole, *stages = runs[0]
        for name in [*stages, whole]:
            seconds = statistics.median(run[name][1] for run in runs)
            print(f"  {'  ' * (runs[0][name][0] - 1) + name:<34}{seconds * 1e3:8.3f}")
        print()


if __name__ == "__main__":
    main()
