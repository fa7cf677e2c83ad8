"""Batch command-line front end.

Subcommands: verify-algebra, reduce-word, manufacture, currents, invert,
residuals.  Exit codes are a stable contract: 0 all checks pass, 1
quantitative failure (identity residual over tolerance, mass-shell
violation), 2 structural or domain error (bad file, bad shape, empty
domain, bad arguments, arithmetic that leaves double precision).

Four-vectors are given as comma-separated reals in index order 0,1,2,3
(lower components); all physics parameters are explicit, there are no
hidden defaults for m and e.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import sys

import numpy as np

from . import __version__
from .algebra import (
    build_representation,
    enumerate_basis,
    representation_from_betas,
    verify_algebra_identities,
)
from .bilinears import (
    MIRRORED_COLUMNS,
    compute_currents_grid,
    current_columns,
    lattice_currents,
    _fierz_numerators,
    _ratio,
)
from .errors import DkpError, MassShellError, ParameterError
from .grids import SCALAR, FieldGrid, load_grid, norms, store_grid, valid_spacing
from .inversion import _FIELD_EQ, _solution_residuals, invert_pipeline
from .planewave import PlaneWaveSpec, manufacture_plane_wave, plane_wave_gradient
from .reports import all_pass, entry_from_values, report_entry, write_report
from .scalars import EXACT, FLOAT, magnitude, random_exact_wavefunction
from .words import BASIS_LABELS, reduce_word, word_reduction_sweep

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_STRUCTURAL = 2


def _real(text):
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"need a finite real, got {text!r}")
    return x


def _tolerance(text):
    x = _real(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"need a tolerance >= 0, got {text!r}")
    return x


def _reals(values):
    return tuple(_real(x) for x in values)


def _four_vector(text):
    parts = _reals(text.split(","))
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"need 4 comma-separated reals, got {text!r}")
    return parts


def _count(lo, hi=None):
    """argparse type: an int n with lo <= n, and n <= hi unless hi is None."""
    def count(text):
        n = int(text)
        if n < lo or (hi is not None and n > hi):
            raise argparse.ArgumentTypeError(f"need an int in {lo}..{hi or ''}, got {text!r}")
        return n
    return count


def _extents(text):
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 4 or any(n < 1 for n in parts):
        raise argparse.ArgumentTypeError(f"need 4 positive ints, got {text!r}")
    return tuple(parts)


def _spacing(text):
    parts = list(_reals(text.split(",")))
    if len(parts) == 1:
        parts = parts * 4
    if len(parts) != 4 or not all(map(valid_spacing, parts)):
        raise argparse.ArgumentTypeError(
            f"need 1 or 4 positive reals h with h*h >= {sys.float_info.min}, got {text!r}")
    return tuple(parts)


def _complex_amplitude(text):
    parts = _reals(text.split(","))
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise argparse.ArgumentTypeError(f"amplitude is re or re,im, got {text!r}")


def _word(text):
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def build_parser(command=None):
    """The ``dkp`` parser.  Every sub-command is registered with its help
    line, but only ``command``'s arguments are added (every sub-command's
    when None): adding an argument costs far more than parsing one."""
    parser = argparse.ArgumentParser(
        prog="dkp",
        description="5-component DKP algebra, currents, and potential inversion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(p)
    return parser


def _verify_algebra_args(p):
    p.add_argument("--mode", choices=[EXACT, FLOAT], default=EXACT)
    p.add_argument("--max-word-len", type=_count(0, 10), default=3,
                   help="word-reduction sweep depth, 0..10; 0 skips the sweep")
    p.add_argument("--tol", type=_tolerance, default=1e-12, help="float-mode tolerance, >= 0")
    p.add_argument("--fierz-samples", type=_count(0), default=0,
                   help="also check the rank-one rearrangement on N random exact wavefunctions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", dest="json_path", help="write the report here")
    p.add_argument("--corrupt-generator", type=int, choices=range(4),
                   help=argparse.SUPPRESS)  # test hook: zero out one generator
    p.set_defaults(func=cmd_verify_algebra)


def _reduce_word_args(p):
    p.add_argument("word", type=_word, help="comma-separated indices in 0..3; empty for I")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_reduce_word)


def _manufacture_args(p):
    p.add_argument("--p", type=_four_vector, required=True, help="phase momentum, lower index")
    p.add_argument("--A", type=_four_vector, required=True, help="constant potential, lower index")
    p.add_argument("--m", type=_real, required=True)
    p.add_argument("--e", type=_real, required=True)
    p.add_argument("--amplitude", type=_complex_amplitude, default=complex(1.0))
    p.add_argument("--extents", type=_extents, required=True)
    p.add_argument("--spacing", type=_spacing, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_manufacture)


def _currents_args(p):
    p.add_argument("--grid", required=True)
    p.add_argument("--json", dest="json_path")
    p.add_argument("--csv", dest="csv_path")
    p.set_defaults(func=cmd_currents)


def _invert_args(p):
    _add_residual_args(p)
    p.add_argument("-o", "--outdir", help="write the output grids here")
    p.set_defaults(func=cmd_invert)


def _residuals_args(p):
    _add_residual_args(p)
    p.set_defaults(func=cmd_residuals)


def _add_residual_args(p):
    p.add_argument("--grid", required=True)
    p.add_argument("--sidecar", help="manufacture sidecar JSON (default: <grid>.json if present)")
    p.add_argument("--m", type=_real)
    p.add_argument("--e", type=_real)
    p.add_argument("--A", dest="A_flag", type=_four_vector,
                   help="constant reference potential when no sidecar is given")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--analytic", action="store_true",
                      help="closed-form derivatives (requires a plane-wave sidecar)")
    mode.add_argument("--fd", action="store_true", help="finite differences (default)")
    p.add_argument("--tolerance", type=_tolerance, default=1e-10, help="check tolerance, >= 0")
    p.add_argument("--json", dest="json_path")
    p.add_argument("--csv", dest="csv_path")


#: (name, help line, argument adder) of each sub-command, in the order of ``dkp --help``.
_SUBCOMMANDS = (
    ("verify-algebra", "check every matrix identity family", _verify_algebra_args),
    ("reduce-word", "expand a generator word on the 25-element basis", _reduce_word_args),
    ("manufacture", "sample an exact plane-wave solution onto a grid file", _manufacture_args),
    ("currents", "bilinear currents at every point of a stored grid", _currents_args),
    ("invert", "reconstruct the potential and field strength from a grid", _invert_args),
    ("residuals", "diagnostic residuals of the constraint and reduced systems", _residuals_args),
)


def cmd_verify_algebra(args) -> int:
    rep = build_representation(args.mode)
    if args.corrupt_generator is not None:
        betas = list(rep.beta)
        betas[args.corrupt_generator] = 0 * betas[args.corrupt_generator]
        rep = representation_from_betas(betas, args.mode)
    checks = verify_algebra_identities(rep, tol=args.tol)
    entries = [
        report_entry(c.name, c.max_abs, c.rms, 0.0, 0.0 if args.mode == EXACT else args.tol)
        for c in checks
    ]
    located = {}
    for entry, check in zip(entries, checks):
        # In exact mode pass/fail is literal zero, not a tolerance comparison.
        entry["pass"] = check.passed
        if not check.passed:
            case, at = check.first_failure
            entry["first_failure"] = {"case": list(case), "entry": list(at)}
            located[check.name] = f"{check.name} at case {case}" + (f" entry {at}" if at else "")
    failed = list(located)

    sweep = None
    if args.max_word_len > 0 and not failed:
        words, mismatches, max_res = word_reduction_sweep(rep, args.max_word_len, tol=args.tol)
        sweep = {"words": words, "mismatches": mismatches, "max_abs": max_res}
        if mismatches:
            failed.append("word_reduction_sweep")

    fierz = None
    if args.fierz_samples > 0 and not failed:
        # The rearrangement sweep always runs in exact arithmetic, all samples at once.
        exact_rep = rep if args.mode == EXACT else build_representation(EXACT)
        rng = random.Random(args.seed)
        phis = [random_exact_wavefunction(rng) for _ in range(args.fierz_samples)]
        _, num, den = _fierz_numerators(exact_rep, phis)
        bad = np.flatnonzero(np.any(num != 0, axis=(0, 2)))  # (2, samples, 50) Gaussian integers
        worst = max(map(magnitude, _ratio(num[:, bad], den[bad]).flat), default=0.0)
        fierz = {"samples": args.fierz_samples, "failures": len(bad), "max_abs": worst}
        if len(bad):
            failed.append("fierz_rearrangement_sweep")

    payload = {
        "mode": args.mode,
        "identities": entries,
        "word_sweep": sweep,
        "fierz_sweep": fierz,
    }

    if failed:
        payload["failed"] = failed
        _emit(args, payload)
        print(f"FAIL: {', '.join(located.get(name, name) for name in failed)}")
        return EXIT_FAIL

    try:
        _, rank = enumerate_basis(rep)
    except DkpError as exc:
        print(f"representation defect: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    payload["basis_rank"] = rank
    _emit(args, payload)
    print(f"PASS: {len(checks)} identity families"
          + (f", {sweep['words']} words" if sweep else ""))
    return EXIT_PASS


def _emit(args, payload):
    if getattr(args, "json_path", None):
        write_report(args.json_path, payload)


def cmd_reduce_word(args) -> int:
    combo = reduce_word(args.word)
    payload = {
        "word": list(args.word),
        "labels": list(BASIS_LABELS),
        "coefficients": combo.to_json_obj(),
    }
    text = json.dumps(payload, indent=2)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_PASS


def cmd_manufacture(args) -> int:
    spec = PlaneWaveSpec(p=args.p, A=args.A, m=args.m, e=args.e, amplitude=args.amplitude)
    try:
        grid = manufacture_plane_wave(spec, args.extents, args.spacing)
    except MassShellError as exc:
        print(f"off shell: |k.k - m^2| = {exc.violation:.6e}", file=sys.stderr)
        return EXIT_FAIL
    store_grid(grid, args.output)
    sidecar = {
        "p": list(args.p),
        "A": list(args.A),
        "m": args.m,
        "e": args.e,
        "amplitude": [args.amplitude.real, args.amplitude.imag],
        "extents": list(args.extents),
        "spacing": list(args.spacing),
    }
    write_report(args.output + ".json", sidecar)
    print(f"wrote {args.output} ({grid.n_points} points) and {args.output}.json")
    return EXIT_PASS


def cmd_currents(args) -> int:
    _check_distinct_paths([args.grid], [args.json_path, args.csv_path])
    grid = load_grid(args.grid)
    cg = compute_currents_grid(build_representation(FLOAT), grid)
    columns = current_columns(cg)
    if args.json_path or args.csv_path:
        _write_points(grid.extents, columns, MIRRORED_COLUMNS, args.csv_path, args.json_path)
    else:
        row = _json_row([*_INDEX_COLUMNS, *columns], 2)
        blocks = _text_blocks(grid.extents, columns, MIRRORED_COLUMNS, stop=4)
        print("[" + ",".join(row % r for block in blocks for r in block) + "\n]")
    # Every S is finite, but their sum can overflow, to inf or, where S takes
    # both signs, to inf - inf = nan.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(cg.S)
    if not np.isfinite(mean):
        top = np.abs(cg.S).max()
        mean = np.mean(cg.S / top) * top
    print(f"{grid.n_points} points, mean S = {float(mean):.6g}")
    return EXIT_PASS


_INDEX_COLUMNS = ("it", "ix", "iy", "iz")

#: Points per block of formatted rows.
_BLOCK_ROWS = 128


def _text_blocks(extents, columns, mirrors, stop=None):
    """The rows of the first ``stop`` points (all by default) in row-major
    order, in blocks of ``_BLOCK_ROWS``: each row a tuple of the reprs of
    the point's index (it, ix, iy, iz) and of ``columns`` (name: array over
    the grid) at the point.

    Each column is formatted once per block.  A column in ``mirrors`` (name:
    (source column, sign)) whose block holds the same float64 bits as its
    source's, times the sign, takes the source's texts instead, with the
    leading "-" flipped for a negation; any other block is formatted.
    """
    n = math.prod(extents) if stop is None else min(stop, math.prod(extents))
    flat = {name: np.reshape(values, -1) for name, values in columns.items()}
    for s in range(0, n, _BLOCK_ROWS):
        rows = slice(s, min(s + _BLOCK_ROWS, n))
        index = np.unravel_index(np.arange(rows.start, rows.stop), extents)
        texts = dict(zip(_INDEX_COLUMNS, (list(map(repr, i.tolist())) for i in index)))
        for name, values in flat.items():
            block = values[rows]
            source, sign = mirrors.get(name, (None, 1))
            if source is not None and np.array_equal(
                    block.view(np.int64), (sign * flat[source][rows]).view(np.int64)):
                texts[name] = texts[source] if sign == 1 else [
                    t[1:] if t[0] == "-" else "-" + t for t in texts[source]]
            else:
                texts[name] = list(map(repr, block.tolist()))
        yield list(zip(*texts.values()))


def _json_row(names, indent):
    """A %-template of one row as ``json.dump(..., indent=2)`` lays out a
    dict with keys ``names``, an item of a list at ``indent`` spaces; rows
    are joined by ","."""
    pad = " " * indent
    keys = ",".join(f"\n{pad}  {json.dumps(k)}: %s" for k in names)
    return f"\n{pad}{{{keys}\n{pad}}}"


def _write_points(extents, columns, mirrors, csv_path=None, json_path=None):
    """One row per point (:func:`_text_blocks`), a block at a time: as CSV,
    laid out as csv.writer writes ints and floats (no quoting, so each row is
    the texts joined), and as the JSON report {"extents", "points"} laid out
    as :func:`write_report` writes it."""
    names = [*_INDEX_COLUMNS, *columns]
    row = _json_row(names, 4)
    with contextlib.ExitStack() as stack:
        json_fh = stack.enter_context(open(json_path, "w")) if json_path else None
        csv_fh = stack.enter_context(open(csv_path, "w", newline="")) if csv_path else None
        if json_fh:
            json_fh.write('{\n  "extents": [\n    ' + ",\n    ".join(map(str, extents))
                          + '\n  ],\n  "points": [')
        if csv_fh:
            csv_fh.write(",".join(names) + "\r\n")
        sep = ""
        for block in _text_blocks(extents, columns, mirrors):
            if json_fh:
                json_fh.write(sep + ",".join(row % r for r in block))
                sep = ","
            if csv_fh:
                csv_fh.writelines(",".join(r) + "\r\n" for r in block)
        if json_fh:
            json_fh.write("\n  ]\n}\n")


def _check_distinct_paths(inputs, outputs):
    """ParameterError unless each given output path differs from every input
    and every other output, symbolic links resolved."""
    seen = {os.path.realpath(path): "an input" for path in inputs}
    for out in filter(None, outputs):
        path = os.path.realpath(out)
        if path in seen:
            raise ParameterError(f"output path {out!r} collides with {seen[path]}")
        seen[path] = "another output"


def _load_sidecar(path, optional):
    if optional and not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            sidecar = json.load(fh)
    except ValueError as exc:
        raise ParameterError(f"sidecar {path} is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ParameterError(f"sidecar {path} is not a JSON object")
    return sidecar


def _sidecar_value(sidecar, key, convert=_real):
    """sidecar[key] through ``convert``; None without a sidecar or that key.
    Not a JSON number or list of them (a bool, a string read char by char):
    passed on as None, which every ``convert`` refuses."""
    if sidecar is None or key not in sidecar:
        return None
    numbers = sidecar[key] if isinstance(sidecar[key], list) else [sidecar[key]]
    try:
        return convert(sidecar[key] if all(type(x) in (int, float) for x in numbers) else None)
    except (TypeError, ValueError, IndexError, argparse.ArgumentTypeError) as exc:
        raise ParameterError(f"sidecar field {key!r} is malformed: {sidecar[key]!r}") from exc


def _resolve_physics(args, sidecar):
    m = args.m if args.m is not None else _sidecar_value(sidecar, "m")
    e = args.e if args.e is not None else _sidecar_value(sidecar, "e")
    if m is None or e is None:
        raise ParameterError("m and e must be given explicitly (flags or sidecar)")
    return m, e


def _resolve_derivatives(args, sidecar, grid):
    if not args.analytic:
        return None
    if sidecar is None:
        raise ParameterError("--analytic requires a plane-wave sidecar")
    wave = {
        key: _sidecar_value(sidecar, key, convert)
        for key, convert in (("p", _reals), ("A", _reals), ("m", _real), ("e", _real),
                             ("amplitude", lambda a: complex(*_reals(a))))
    }
    missing = [key for key, value in wave.items() if value is None]
    if missing:
        raise ParameterError(f"--analytic needs {', '.join(missing)} in the plane-wave sidecar")
    return plane_wave_gradient(PlaneWaveSpec(**wave), grid)


def _resolve_a_ref(args, sidecar):
    if args.A_flag is not None:
        return np.array(args.A_flag)
    a_ref = _sidecar_value(sidecar, "A", _reals)
    return None if a_ref is None else np.array(a_ref)


def _lattice_inputs(args, outputs=(), outdir=None):
    """Check that the outputs (``outputs`` with --json and --csv) collide with
    no input, and that ``outdir``, if it exists, is a directory, then load:
    (rep, grid, m, e, dphi, A_ref), dphi None for finite differences and
    A_ref None when no flag or sidecar gives it."""
    sidecar_path = args.sidecar if args.sidecar is not None else args.grid + ".json"
    _check_distinct_paths([args.grid, sidecar_path], [args.json_path, args.csv_path, *outputs])
    if outdir is not None and os.path.exists(outdir) and not os.path.isdir(outdir):
        raise ParameterError(f"output directory {outdir!r} exists and is not a directory")
    grid = load_grid(args.grid)
    sidecar = _load_sidecar(sidecar_path, optional=args.sidecar is None)
    m, e = _resolve_physics(args, sidecar)
    dphi = _resolve_derivatives(args, sidecar, grid)
    return build_representation(FLOAT), grid, m, e, dphi, _resolve_a_ref(args, sidecar)


def _lattice_payload(args, m, e, dphi, mask, entries):
    """The report head that invert and residuals share."""
    return {
        "grid": args.grid,
        "m": m,
        "e": e,
        "derivatives": "analytic" if dphi is not None else "finite-difference",
        "masked_fraction": float(mask.mean()),
        "checks": entries,
    }


#: The grid files that ``invert -o`` writes, in the order of :func:`cmd_invert`.
_OUTPUT_GRIDS = ("A_full.dkp5", "A_gauge_fixed.dkp5", "gauge_term.dkp5", "F_potential.dkp5",
                 "F_bilinear.dkp5", "mask.dkp5")


def cmd_invert(args) -> int:
    grid_paths = [os.path.join(args.outdir, name) for name in _OUTPUT_GRIDS] if args.outdir else []
    # The -o directory is an output too: it may not be an input or the report.
    rep, grid, m, e, dphi, a_ref = _lattice_inputs(args, [args.outdir, *grid_paths], args.outdir)
    out, entries = invert_pipeline(rep, grid, m, e, dphi=dphi, A_ref=a_ref, tolerance=args.tolerance)
    payload = _lattice_payload(args, m, e, dphi, out.singular_mask, entries)
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        mask_grid = FieldGrid(grid.extents, grid.spacing, SCALAR, out.singular_mask.astype(float))
        for values, path in zip((out.a_full, out.a_gauge_fixed, out.gauge_term, out.f_from_potential,
                                 out.f_bilinear, mask_grid), grid_paths):
            store_grid(values, path)
    if args.json_path:
        write_report(args.json_path, payload)
    if args.csv_path:
        _residual_csv(args.csv_path, out.singular_mask, {
            "decomposition": out.a_full.values - out.a_gauge_fixed.values - out.gauge_term.values,
            "a_full_norm": out.a_full.values,
            "f_potential_norm": out.f_from_potential.values,
            "f_bilinear_norm": out.f_bilinear.values,
        })
    for entry in entries:
        print(f"{'PASS' if entry['pass'] else 'FAIL'} {entry['identity']}: "
              f"max_abs={entry['max_abs']:.3e} tol={entry['tolerance']:.3e}")
    return EXIT_PASS if all_pass(entries) else EXIT_FAIL


def _residual_csv(path, mask, residuals):
    """One row per point: the mask flag, then max |value| over each residual's components."""
    columns = {"masked": mask.astype(int)}
    for name, values in residuals.items():
        columns[name] = np.abs(values).reshape(mask.shape + (-1,)).max(axis=-1)
    _write_points(mask.shape, columns, {}, csv_path=path)


#: The columns of ``residuals --csv``, by the residual each is taken from.
_RESIDUAL_CSV_COLUMNS = {
    "current_conservation": "dJ",
    "companion_divergence": "dH",
    "current_potential_contraction": "JA",
    "companion_potential_contraction": "HA",
    "h_elimination": "h_elimination",
    "reduced_conservation": "reduced_conservation",
    "reduced_modulus": "reduced_modulus",
    _FIELD_EQ: "reduced_field_eq",
}


def cmd_residuals(args) -> int:
    rep, grid, m, e, dphi, a_ref = _lattice_inputs(args)
    if a_ref is None:
        raise ParameterError("need a reference potential (--A flag or sidecar)")
    cg = lattice_currents(rep, grid)
    mask = cg.mask
    residuals = _solution_residuals(rep, grid, cg, m, e, a_ref, dphi, field_eq=True)
    del cg  # freed by the residuals once their reduced state is made
    entries, kept = [], {}
    for name, values in residuals:
        if name == _FIELD_EQ:
            field_eq_max_abs, field_eq_rms = norms(values, mask)
        else:
            entries.append(entry_from_values(name, values, mask, args.tolerance))
        if args.csv_path and name in _RESIDUAL_CSV_COLUMNS:
            kept[_RESIDUAL_CSV_COLUMNS[name]] = values
        del values  # without --csv, no residual outlives its entry
    payload = _lattice_payload(args, m, e, dphi, mask, entries)
    payload["diagnostics"] = {
        "reduced_field_eq_max_abs": field_eq_max_abs,
        "reduced_field_eq_rms": field_eq_rms,
    }
    if args.json_path:
        write_report(args.json_path, payload)
    if args.csv_path:
        _residual_csv(args.csv_path, mask, kept)
    for entry in entries:
        print(f"{'PASS' if entry['pass'] else 'FAIL'} {entry['identity']}: "
              f"max_abs={entry['max_abs']:.3e}")
    print(f"diagnostic reduced_field_eq max_abs={payload['diagnostics']['reduced_field_eq_max_abs']:.3e}")
    return EXIT_PASS if all_pass(entries) else EXIT_FAIL


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser takes no option values, so its first bare token
    # names the sub-command, if there is one.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ArithmeticError as exc:  # finite input whose arithmetic leaves double precision
        print(f"error: the input cannot be handled in double precision ({exc})", file=sys.stderr)
        return EXIT_STRUCTURAL
    except MemoryError as exc:  # a grid or request too large for memory
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: not enough memory for this request{detail}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (DkpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
