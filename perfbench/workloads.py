"""The benchmark's workloads: seeded inputs, the dkp command line, output checks.

Each workload turns the benchmark seed into input files (the program sees
only those files and the flags), names the ``dkp`` arguments of one
operation, and checks that operation's output.  A check returns a list of
problems; an op with any problem counts as failed.

dkp5 is imported inside the methods, never at module level, so that each
call uses the modules the benchmark has just (re)imported and, in a
traced run, wrapped.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

#: Entries of an FD inversion report whose value depends on stencils of
#: Phi itself; on a plane wave every other entry is round-off.
DPHI_ENTRIES = {
    "decomposition_full_vs_gauge_fixed_plus_gauge_term",
    "gauge_faithfulness_a_full",
    "current_potential_contraction",
}
ROUND_OFF = 1e-10

#: Column order of ``dkp currents --csv``, written out independently of the program.
CURRENT_COLUMNS = (
    ["it", "ix", "iy", "iz", "S", "Sflat"]
    + [f"J{m}" for m in range(4)]
    + [f"ImH{m}" for m in range(4)]
    + [f"{part}K{m}{n}" for m in range(4) for n in range(4) for part in ("Re", "Im")]
    + ["Z", "ReSt", "ImSt", "ReStflat", "ImStflat"]
    + [f"{part}Jt{m}" for m in range(4) for part in ("Re", "Im")]
    + [f"{part}Kt{m}{n}" for m in range(4) for n in range(4) for part in ("Re", "Im")]
    + ["ReZt", "ImZt"]
)


def _floats(values):
    return ",".join(repr(float(x)) for x in values)


def _np_seed(seed):
    return seed % 2**32


class InvertFd:
    """``dkp invert --fd`` on a manufactured plane wave in a constant potential.

    The seed picks a signed permutation of the spatial axes, applied to both
    the wave vector and the potential, and the complex amplitude.  The
    momentum's components keep their magnitudes, so the finite-difference
    truncation error, and with it ``potential_error``, is the same for
    every seed up to round-off; the lattice is cubic, so no axis is special.
    """

    name = "invert_fd"
    grid_file = "wave.dkp5"
    M, E = 1.0, 1.0
    K_SPATIAL = (0.7, 0.5, 0.4)  # raised-index wave vector before the seed's permutation
    A_BASE = (0.2, 0.1, -0.2, 0.15)  # lower-index potential before the permutation
    SPACING = 0.05

    def __init__(self, seed, extent=12):
        rng = np.random.default_rng(_np_seed(seed))
        perm = [int(i) for i in rng.permutation(3)]
        signs = [float(s) for s in rng.choice([-1.0, 1.0], size=3)]
        k_up = [signs[i] * self.K_SPATIAL[perm[i]] for i in range(3)]
        a_space = [signs[i] * self.A_BASE[1 + perm[i]] for i in range(3)]
        self.A = (self.A_BASE[0], *a_space)
        k0 = math.sqrt(self.M**2 + sum(k * k for k in k_up))
        k_lower = (k0, *(-k for k in k_up))
        self.p = tuple(k + self.E * a for k, a in zip(k_lower, self.A))
        radius, phase = float(rng.uniform(0.8, 1.25)), float(rng.uniform(0.0, 2 * math.pi))
        self.amplitude = (radius * math.cos(phase), radius * math.sin(phase))
        self.extents = (extent,) * 4
        # Second-order stencils: the one-sided boundary stencil errs by
        # h^2 |p|^3 / 3 per component; a factor 6 covers the products
        # that the potential and the contractions build from them.
        self.tolerance = 2.0 * self.SPACING**2 * sum(abs(x) ** 3 for x in self.p)

    def generate(self, indir):
        from dkp5 import cli

        code = cli.main([
            "manufacture", f"--p={_floats(self.p)}", f"--A={_floats(self.A)}",
            f"--m={self.M!r}", f"--e={self.E!r}", f"--amplitude={_floats(self.amplitude)}",
            "--extents", ",".join(map(str, self.extents)),
            "--spacing", repr(self.SPACING), "-o", os.path.join(indir, self.grid_file),
        ])
        if code != 0:
            raise RuntimeError(f"dkp manufacture exited {code}")

    def argv(self, indir, outdir):
        return [
            "invert", "--grid", os.path.join(indir, self.grid_file), "--fd",
            "--tolerance", repr(self.tolerance),
            "--json", os.path.join(outdir, "report.json"), "-o", os.path.join(outdir, "grids"),
        ]

    def check(self, code, indir, outdir):
        """(problems, observations) for one op's exit code and files."""
        from dkp5.grids import load_grid

        problems = []
        if code != 0:
            problems.append(f"exit code {code}, want 0")
        with open(os.path.join(outdir, "report.json")) as fh:
            entries = json.load(fh)["checks"]
        if len(entries) != 15:
            problems.append(f"{len(entries)} report entries, want 15")
        for entry in entries:
            if entry["identity"] not in DPHI_ENTRIES and not entry["max_abs"] <= ROUND_OFF:
                problems.append(f"{entry['identity']} max_abs {entry['max_abs']:.3e} > {ROUND_OFF}")
        a_full = load_grid(os.path.join(outdir, "grids", "A_full.dkp5"))
        mask = load_grid(os.path.join(outdir, "grids", "mask.dkp5")).values.real != 0
        if a_full.extents != self.extents or mask.all():
            problems.append(f"A_full extents {a_full.extents}, masked {mask.mean():.3f}")
            return problems, {}
        error = float(np.max(np.abs(a_full.values[~mask] - np.array(self.A))))
        if not error <= self.tolerance:
            problems.append(f"max |A_full - A*| = {error:.3e} > stencil bound {self.tolerance:.3e}")
        return problems, {"inversion.potential_error": error}


class CurrentsCsv:
    """``dkp currents --csv`` on a seeded smooth random field (per-point currents)."""

    name = "currents_csv"
    grid_file = "field.dkp5"
    SPACING = (0.1,) * 4
    SAMPLE_ROWS = 64  # rows compared with compute_currents_grid

    def __init__(self, seed, extent=6):
        self.seed = _np_seed(seed)
        self.extents = (extent,) * 4

    def generate(self, indir):
        from dkp5.grids import store_grid
        from dkp5.planewave import random_fourier_field

        grid, _ = random_fourier_field(self.extents, self.SPACING, n_modes=3, seed=self.seed)
        store_grid(grid, os.path.join(indir, self.grid_file))

    def argv(self, indir, outdir):
        return ["currents", "--grid", os.path.join(indir, self.grid_file),
                "--csv", os.path.join(outdir, "currents.csv")]

    def _reference_rows(self, indir, rows):
        from dkp5.algebra import build_representation
        from dkp5.bilinears import compute_currents_grid
        from dkp5.grids import load_grid

        grid = load_grid(os.path.join(indir, self.grid_file))
        cg = compute_currents_grid(build_representation("float"), grid)
        out = []
        for r in rows:
            idx = np.unravel_index(r, self.extents)
            c = lambda name: getattr(cg, name)[idx]
            values = [*idx, c("S"), c("Sflat"), *c("J"), *c("H").imag]
            values += [f(z) for z in c("K").reshape(-1) for f in (np.real, np.imag)]
            values += [c("Z"), c("tilde_S").real, c("tilde_S").imag,
                       c("tilde_Sflat").real, c("tilde_Sflat").imag]
            values += [f(z) for z in c("tilde_J") for f in (np.real, np.imag)]
            values += [f(z) for z in c("tilde_K").reshape(-1) for f in (np.real, np.imag)]
            values += [c("tilde_Z").real, c("tilde_Z").imag]
            out.append(np.array(values, dtype=float))
        return out

    def check(self, code, indir, outdir):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, want 0")
        with open(os.path.join(outdir, "currents.csv"), newline="") as fh:
            text = fh.read()
        if not text.endswith("\n"):
            problems.append("CSV ends inside a row")
        lines = text.splitlines()
        header = next(csv.reader(lines[:1]), [])
        if header != CURRENT_COLUMNS:
            problems.append("CSV header differs from the documented column order")
        n_points = math.prod(self.extents)
        if len(lines) - 1 != n_points:
            problems.append(f"{len(lines) - 1} CSV rows, want {n_points}")
        short = sum(1 for line in lines[1:] if line.count(",") != len(CURRENT_COLUMNS) - 1)
        if short:
            problems.append(f"{short} CSV rows without {len(CURRENT_COLUMNS)} fields")
        if problems:
            return problems, {}
        rng = np.random.default_rng(self.seed + 1)
        rows = sorted(rng.choice(n_points, size=min(self.SAMPLE_ROWS, n_points), replace=False))
        for r, want in zip(rows, self._reference_rows(indir, rows)):
            got = np.array(next(csv.reader(lines[1 + r : 2 + r])), dtype=float)
            scale = np.maximum(np.abs(want), np.max(np.abs(want[4:])))
            if not np.all(np.abs(got - want) <= 1e-12 * scale):
                problems.append(f"CSV row {r} differs from compute_currents_grid")
                break
        return problems, {}


class ExactAlgebra:
    """``dkp verify-algebra --mode exact`` with the word sweep and a Fierz sweep."""

    name = "exact_algebra"
    FAMILIES = 11
    BASIS_RANK = 25

    def __init__(self, seed, max_word_len=4, fierz_samples=10, extra_args=()):
        self.seed = seed
        self.max_word_len = max_word_len
        self.fierz_samples = fierz_samples
        self.extra_args = list(extra_args)

    def generate(self, indir):
        pass

    def argv(self, indir, outdir):
        return [
            "verify-algebra", "--mode", "exact", "--max-word-len", str(self.max_word_len),
            "--fierz-samples", str(self.fierz_samples), "--seed", str(self.seed),
            "--json", os.path.join(outdir, "report.json"), *self.extra_args,
        ]

    def check(self, code, indir, outdir):
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, want 0")
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        words = sum(4**n for n in range(1, self.max_word_len + 1))
        want = {
            "basis_rank": self.BASIS_RANK,
            "word_sweep": {"words": words, "mismatches": 0, "max_abs": 0.0},
            "fierz_sweep": {"samples": self.fierz_samples, "failures": 0, "max_abs": 0.0},
        }
        for key, value in want.items():
            if report.get(key) != value:
                problems.append(f"{key} is {report.get(key)}, want {value}")
        identities = report.get("identities", [])
        passed = sum(1 for entry in identities if entry["pass"] and entry["max_abs"] == 0.0)
        if len(identities) != self.FAMILIES or passed != self.FAMILIES:
            problems.append(f"{passed} of {len(identities)} identity families exactly zero, "
                            f"want {self.FAMILIES}")
        return problems, {}


WORKLOADS = {w.name: w for w in (InvertFd, CurrentsCsv, ExactAlgebra)}
