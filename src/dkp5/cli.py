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
import itertools
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
from .bilinears import compute_currents_grid, current_columns, fierz_residual
from .errors import DkpError, EmptyDomainError, MassShellError, ParameterError
from .grids import SCALAR, FieldGrid, load_grid, norms, store_grid, valid_spacing
from .inversion import invert_pipeline, singular_mask, solution_checks
from .planewave import PlaneWaveSpec, manufacture_plane_wave, plane_wave_gradient
from .reports import all_pass, report_entry, write_report
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dkp",
        description="5-component DKP algebra, currents, and potential inversion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="check every matrix identity family")
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

    p = sub.add_parser("reduce-word", help="expand a generator word on the 25-element basis")
    p.add_argument("word", type=_word, help="comma-separated indices in 0..3; empty for I")
    p.add_argument("--json", dest="json_path")
    p.set_defaults(func=cmd_reduce_word)

    p = sub.add_parser("manufacture", help="sample an exact plane-wave solution onto a grid file")
    p.add_argument("--p", type=_four_vector, required=True, help="phase momentum, lower index")
    p.add_argument("--A", type=_four_vector, required=True, help="constant potential, lower index")
    p.add_argument("--m", type=_real, required=True)
    p.add_argument("--e", type=_real, required=True)
    p.add_argument("--amplitude", type=_complex_amplitude, default=complex(1.0))
    p.add_argument("--extents", type=_extents, required=True)
    p.add_argument("--spacing", type=_spacing, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_manufacture)

    p = sub.add_parser("currents", help="bilinear currents at every point of a stored grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--json", dest="json_path")
    p.add_argument("--csv", dest="csv_path")
    p.set_defaults(func=cmd_currents)

    p = sub.add_parser("invert", help="reconstruct the potential and field strength from a grid")
    _add_residual_args(p)
    p.add_argument("-o", "--outdir", help="write the output grids here")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("residuals", help="diagnostic residuals of the constraint and reduced systems")
    _add_residual_args(p)
    p.set_defaults(func=cmd_residuals)

    return parser


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
        r_h, r_c = fierz_residual(exact_rep, phis)
        flat = np.concatenate([r_h, r_c], axis=1).reshape(args.fierz_samples, -1)
        bad = [row for row in flat if any(row)]
        worst = max((magnitude(x) for row in bad for x in row), default=0.0)
        fierz = {"samples": args.fierz_samples, "failures": len(bad), "max_abs": worst}
        if bad:
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
    _check_distinct_paths(args.grid, args.json_path, args.csv_path)
    grid = load_grid(args.grid)
    cg = compute_currents_grid(build_representation(FLOAT), grid)
    columns = _point_columns(grid.extents, current_columns(cg))
    if args.json_path:
        write_report(args.json_path, {"extents": list(grid.extents), "points": _rows(columns)})
    if args.csv_path:
        _write_csv(args.csv_path, columns)
    if not args.json_path and not args.csv_path:
        print(json.dumps(_rows(columns, 4), indent=2))
    print(f"{grid.n_points} points, mean S = {float(np.mean(cg.S)):.6g}")
    return EXIT_PASS


def _point_columns(extents, columns):
    """Index columns it, ix, iy, iz, then ``columns``, as lists in row-major point order."""
    index = np.indices(extents).reshape(4, -1).tolist()
    out = dict(zip(("it", "ix", "iy", "iz"), index))
    for name, values in columns.items():
        out[name] = np.asarray(values).reshape(-1).tolist()
    return out


def _rows(columns, limit=None):
    return [dict(zip(columns, row)) for row in itertools.islice(zip(*columns.values()), limit)]


def _write_csv(path, columns):
    """Header and rows as csv.writer writes them: the values are ints and
    floats, which need no quoting, so each row is their reprs joined."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in zip(*columns.values()))


def _check_distinct_paths(input_path, *outputs):
    seen = os.path.abspath(input_path)
    for out in outputs:
        if out and os.path.abspath(out) == seen:
            raise ParameterError(f"output path {out!r} collides with the input grid")


def _load_sidecar(args):
    path = args.sidecar if args.sidecar is not None else args.grid + ".json"
    if args.sidecar is None and not os.path.exists(path):
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
    """sidecar[key] through ``convert``; None without a sidecar or that key."""
    if sidecar is None or key not in sidecar:
        return None
    try:
        return convert(sidecar[key])
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
                             ("amplitude", lambda a: complex(*_reals(a[:2]))))
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


def cmd_invert(args) -> int:
    _check_distinct_paths(args.grid, args.json_path, args.csv_path)
    grid = load_grid(args.grid)
    sidecar = _load_sidecar(args)
    m, e = _resolve_physics(args, sidecar)
    dphi = _resolve_derivatives(args, sidecar, grid)
    a_ref = _resolve_a_ref(args, sidecar)
    rep = build_representation(FLOAT)
    out, entries = invert_pipeline(rep, grid, m, e, dphi=dphi, A_ref=a_ref, tolerance=args.tolerance)
    masked_fraction = float(out.singular_mask.mean())
    payload = {
        "grid": args.grid,
        "m": m,
        "e": e,
        "derivatives": "analytic" if dphi is not None else "finite-difference",
        "masked_fraction": masked_fraction,
        "checks": entries,
    }
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        store_grid(out.a_full, os.path.join(args.outdir, "A_full.dkp5"))
        store_grid(out.a_gauge_fixed, os.path.join(args.outdir, "A_gauge_fixed.dkp5"))
        store_grid(out.gauge_term, os.path.join(args.outdir, "gauge_term.dkp5"))
        store_grid(out.f_from_potential, os.path.join(args.outdir, "F_potential.dkp5"))
        store_grid(out.f_bilinear, os.path.join(args.outdir, "F_bilinear.dkp5"))
        mask_grid = FieldGrid(grid.extents, grid.spacing, SCALAR, out.singular_mask.astype(float))
        store_grid(mask_grid, os.path.join(args.outdir, "mask.dkp5"))
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
    _write_csv(path, _point_columns(mask.shape, columns))


def cmd_residuals(args) -> int:
    _check_distinct_paths(args.grid, args.json_path, args.csv_path)
    grid = load_grid(args.grid)
    sidecar = _load_sidecar(args)
    m, e = _resolve_physics(args, sidecar)
    dphi = _resolve_derivatives(args, sidecar, grid)
    a_ref = _resolve_a_ref(args, sidecar)
    if a_ref is None:
        raise ParameterError("need a reference potential (--A flag or sidecar)")
    rep = build_representation(FLOAT)
    cg = compute_currents_grid(rep, grid)
    mask = singular_mask(cg)
    if mask.all():
        raise EmptyDomainError("every grid point is Z-singular")
    entries, div, h_res, rres = solution_checks(
        rep, grid, cg, m, e, a_ref, dphi=dphi, tolerance=args.tolerance
    )
    field_eq_max_abs, field_eq_rms = norms(rres.field_eq, mask)
    payload = {
        "grid": args.grid,
        "m": m,
        "e": e,
        "derivatives": "analytic" if dphi is not None else "finite-difference",
        "masked_fraction": float(mask.mean()),
        "checks": entries,
        "diagnostics": {
            "reduced_field_eq_max_abs": field_eq_max_abs,
            "reduced_field_eq_rms": field_eq_rms,
        },
    }
    if args.json_path:
        write_report(args.json_path, payload)
    if args.csv_path:
        _residual_csv(args.csv_path, mask, {
            "dJ": div.dJ, "dH": div.dH, "JA": div.JA, "HA": div.HA,
            "h_elimination": h_res.values,
            "reduced_conservation": rres.conservation,
            "reduced_modulus": rres.modulus,
            "reduced_field_eq": rres.field_eq,
        })
    for entry in entries:
        print(f"{'PASS' if entry['pass'] else 'FAIL'} {entry['identity']}: "
              f"max_abs={entry['max_abs']:.3e}")
    print(f"diagnostic reduced_field_eq max_abs={payload['diagnostics']['reduced_field_eq_max_abs']:.3e}")
    return EXIT_PASS if all_pass(entries) else EXIT_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ArithmeticError as exc:  # finite input whose arithmetic leaves double precision
        print(f"error: the input cannot be handled in double precision ({exc})", file=sys.stderr)
        return EXIT_STRUCTURAL
    except (DkpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
