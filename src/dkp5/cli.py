"""Batch command-line front end.

Subcommands: verify-algebra, reduce-word, manufacture, currents, invert,
residuals.  ``_SUBCOMMANDS`` is the one list of them: each row names a
sub-command, its help line, the function that adds its arguments and its
handler, so each sub-command is registered in one row.

Exit codes are a stable contract: 0 all checks pass, 1 quantitative
failure (identity residual over tolerance, mass-shell violation), 2
structural or domain error (bad file, bad shape, empty domain, bad
arguments, arithmetic that leaves double precision).

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
import pickle
import random
import reprlib
import signal
import sys
import threading
import traceback
import warnings

import numpy as np

from . import __version__
from .algebra import (
    basis_rank,
    build_representation,
    representation_from_betas,
    verify_algebra_identities,
)
from .bilinears import MIRRORED_COLUMNS, compute_currents_grid, current_columns, fierz_sweep
from .errors import DkpError, MassShellError, ParameterError
from .grids import SCALAR, FieldGrid, load_grid, store_grid, valid_spacing
from .inversion import invert_pipeline, solution_report
from .planewave import PlaneWaveSpec, manufacture_plane_wave, plane_wave_gradient
from .reports import all_pass, report_entry, write_report
from .scalars import EXACT, FLOAT, random_exact_rows
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


def _amplitude(values):
    """The complex amplitude of one or two finite reals, re or (re, im)."""
    parts = _reals(values)
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"amplitude is re or re,im, got {values!r}")
    return complex(*parts)


def _complex_amplitude(text):
    return _amplitude(text.split(","))


def _word(text):
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def build_parser():
    """The full ``dkp`` parser: every row of ``_SUBCOMMANDS`` as a
    sub-command with its help line, arguments, -h and handler
    (``args.func``).  :func:`main` builds it only for an argv that its
    sub-command's parser alone cannot take (:func:`_parse_args`)."""
    parser = argparse.ArgumentParser(
        prog="dkp",
        description="5-component DKP algebra, currents, and potential inversion",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
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


def _reduce_word_args(p):
    p.add_argument("word", type=_word, help="comma-separated indices in 0..3; empty for I")
    p.add_argument("--json", dest="json_path")


def _manufacture_args(p):
    p.add_argument("--p", type=_four_vector, required=True, help="phase momentum, lower index")
    p.add_argument("--A", type=_four_vector, required=True, help="constant potential, lower index")
    p.add_argument("--m", type=_real, required=True)
    p.add_argument("--e", type=_real, required=True)
    p.add_argument("--amplitude", type=_complex_amplitude, default=complex(1.0))
    p.add_argument("--extents", type=_extents, required=True)
    p.add_argument("--spacing", type=_spacing, required=True)
    p.add_argument("-o", "--output", required=True)


def _currents_args(p):
    p.add_argument("--grid", required=True)
    p.add_argument("--json", dest="json_path")
    p.add_argument("--csv", dest="csv_path")


def _invert_args(p):
    _add_residual_args(p)
    p.add_argument("-o", "--outdir", help="write the output grids here")


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
        phis = random_exact_rows(random.Random(args.seed), args.fierz_samples)
        failures, worst = fierz_sweep(exact_rep, phis)
        fierz = {"samples": args.fierz_samples, "failures": failures, "max_abs": worst}
        if failures:
            failed.append("fierz_rearrangement_sweep")

    payload = {
        "mode": args.mode,
        "identities": entries,
        "word_sweep": sweep,
        "fierz_sweep": fierz,
    }

    if failed:
        payload["failed"] = failed
    else:
        try:
            payload["basis_rank"] = basis_rank(rep)
        except DkpError as exc:
            print(f"representation defect: {exc}", file=sys.stderr)
            return EXIT_STRUCTURAL
    if args.json_path:
        write_report(args.json_path, payload)
    if failed:
        print(f"FAIL: {', '.join(located.get(name, name) for name in failed)}")
        return EXIT_FAIL
    print(f"PASS: {len(checks)} identity families"
          + (f", {sweep['words']} words" if sweep else ""))
    return EXIT_PASS


def cmd_reduce_word(args) -> int:
    combo = reduce_word(args.word)
    payload = {
        "word": list(args.word),
        "labels": list(BASIS_LABELS),
        "coefficients": combo.to_json_obj(),
    }
    if args.json_path:
        write_report(args.json_path, payload)
    else:
        print(json.dumps(payload, indent=2))
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


def _text_blocks(extents, columns, mirrors, stop=None, start=0, step=1):
    """The rows of the first ``stop`` points (all by default) in row-major
    order, in blocks of ``_BLOCK_ROWS``: each row a tuple of the reprs of
    the point's index (it, ix, iy, iz) and of ``columns`` (name: array over
    the grid) at the point.  Only blocks ``start``, ``start + step``, ...
    are made.

    Each column is formatted once per block.  A column in ``mirrors`` (name:
    (source column, sign)) whose block holds the same float64 bits as its
    source's, times the sign, takes the source's texts instead, with the
    leading "-" flipped for a negation; any other block is formatted.
    """
    n = math.prod(extents) if stop is None else min(stop, math.prod(extents))
    flat = {name: np.reshape(values, -1) for name, values in columns.items()}
    for s in range(start * _BLOCK_ROWS, n, step * _BLOCK_ROWS):
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
    as :func:`write_report` writes it.

    Nearly all the time goes to ``repr`` of the floats, which holds the GIL,
    so the blocks are formatted by two processes, not threads, where this
    process's affinity mask lists two CPUs or more and there are two blocks
    or more (a CPU quota is not seen, as the mask still lists every CPU).
    Whether the fork pays depends on the host: on 2-vCPU hosts, perfbench
    ``currents_csv`` ``op_p50_ref`` read 1.59-1.68 forked against
    2.13-2.43 under ``taskset -c 0`` on one, and 2.64-3.05 forked against
    2.12-2.52 on another, where the forked run is slower.  Where ``os`` has no
    ``sched_getaffinity`` or no ``fork``, or one process is all there is to
    use, the caller formats every block and forks nothing.  Otherwise it
    formats the even blocks and one forked worker (:func:`_row_worker`) the
    odd ones; the caller writes the blocks in order, reading each of the
    worker's when its turn comes.  A full pipe stops the worker until then,
    so each process holds about one block.
    """
    names = [*_INDEX_COLUMNS, *columns]
    row = _json_row(names, 4)
    n_blocks = -(-math.prod(extents) // _BLOCK_ROWS)
    can_fork = hasattr(os, "sched_getaffinity") and hasattr(os, "fork")
    k = min(2, len(os.sched_getaffinity(0)) if can_fork else 1, n_blocks)

    def texts(start):
        for block in _text_blocks(extents, columns, mirrors, start=start, step=k):
            yield ("".join(",".join(r) + "\r\n" for r in block) if csv_path else "",
                   ",".join(row % r for r in block) if json_path else "")

    with contextlib.ExitStack() as stack:
        pipe = _row_worker(stack, texts(1)) if k == 2 else None
        json_fh = stack.enter_context(open(json_path, "w")) if json_path else None
        csv_fh = stack.enter_context(open(csv_path, "w", newline="")) if csv_path else None
        if json_fh:
            json_fh.write('{\n  "extents": [\n    ' + ",\n    ".join(map(str, extents))
                          + '\n  ],\n  "points": [')
        if csv_fh:
            csv_fh.write(",".join(names) + "\r\n")
        own = texts(0)
        for b in range(n_blocks):
            csv_text, json_text = _receive(pipe) if b % k else next(own)
            if json_fh:
                json_fh.write(("," if b else "") + json_text)
            if csv_fh:
                csv_fh.write(csv_text)
        if json_fh:
            json_fh.write("\n  ]\n}\n")


def _row_worker(stack, blocks):
    """Fork a worker and return the read end of its pipe.  The worker
    pickles each item that ``blocks`` yields down the pipe and flushes after
    each.  An exception in the worker is sent as one pickled OSError that
    names it; the worker prints nothing and leaves with ``os._exit``.  On
    leaving ``stack``, by return or by any exception, the worker is killed
    and reaped, so it never outlives the caller; it has sent all it had once
    its last block is read.

    The worker runs only numpy indexing, ``repr`` and writes to its pipe; it
    calls no BLAS routine and takes no lock that another thread of the
    caller may hold, so OpenBLAS's threads cannot stop it.  CPython 3.12
    and later warn at every fork in a process with more than one thread;
    as the fork is safe here, the warning is ignored at it.
    """
    r, w = os.pipe()
    pipe = stack.enter_context(open(r, "rb"))
    with open(w, "wb") as out:  # the caller's copy is closed on return
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process .*is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                pipe.close()
                try:
                    for item in blocks:
                        pickle.dump(item, out)
                        out.flush()  # else the block's tail waits in the buffer
                except BaseException as exc:
                    line = traceback.format_exception_only(exc)[-1].strip()
                    pickle.dump(OSError(f"a row-formatting worker process failed: {line}"), out)
                out.close()
            finally:
                os._exit(0)
    stack.callback(os.waitpid, pid, 0)
    stack.callback(os.kill, pid, signal.SIGKILL)  # run before the waitpid
    return pipe


def _receive(pipe):
    """The next block of texts the row worker sent down ``pipe``: OSError
    with the worker's exception if it sent one, or if it ended first."""
    try:
        item = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise OSError("a row-formatting worker process ended before sending all its rows") from None
    if isinstance(item, OSError):
        raise item
    return item


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
            sidecar = _parse_json(fh.read())
    except (ValueError, RecursionError) as exc:  # RecursionError: nested deeper than the parser goes
        raise ParameterError(f"sidecar {path} is not valid JSON: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ParameterError(f"sidecar {path} is not a JSON object")
    return sidecar


def _parse_json(text):
    """``json.loads(text)`` on a new thread, whose Python stack starts empty:
    how deep the JSON may nest then depends on the recursion limit alone,
    not on how deep the caller's stack is."""
    out, errors = [], []

    def parse():
        try:
            out.append(json.loads(text))
        except Exception as exc:  # raised again in the caller's thread
            errors.append(exc)

    thread = threading.Thread(target=parse)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]
    return out[0]


def _sidecar_value(sidecar, key, convert=_real):
    """sidecar[key] through ``convert``; None without a sidecar or that key.
    Not a JSON number or list of them (a bool, a string read char by char):
    passed on as None, which every ``convert`` refuses."""
    if sidecar is None or key not in sidecar:
        return None
    numbers = sidecar[key] if isinstance(sidecar[key], list) else [sidecar[key]]
    try:
        return convert(sidecar[key] if all(type(x) in (int, float) for x in numbers) else None)
    except (TypeError, ValueError, IndexError, OverflowError, argparse.ArgumentTypeError) as exc:
        raise ParameterError(f"sidecar field {key!r} is malformed: {reprlib.repr(sidecar[key])}") from exc


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
                             ("amplitude", _amplitude))
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
    {rep, grid, m, e, dphi, a_ref}, dphi None for finite differences and
    a_ref None when no flag or sidecar gives it.  A caller pops the grid
    and dphi as it hands them on, so that it does not hold them."""
    sidecar_path = args.sidecar if args.sidecar is not None else args.grid + ".json"
    _check_distinct_paths([args.grid, sidecar_path], [args.json_path, args.csv_path, *outputs])
    if outdir is not None and os.path.exists(outdir) and not os.path.isdir(outdir):
        raise ParameterError(f"output directory {outdir!r} exists and is not a directory")
    grid = load_grid(args.grid)
    sidecar = _load_sidecar(sidecar_path, optional=args.sidecar is None)
    m, e = _resolve_physics(args, sidecar)
    return dict(rep=build_representation(FLOAT), grid=grid, m=m, e=e,
                dphi=_resolve_derivatives(args, sidecar, grid), a_ref=_resolve_a_ref(args, sidecar))


def _lattice_payload(args, inputs, mask, entries):
    """The report head that invert and residuals share."""
    return {
        "grid": args.grid,
        "m": inputs["m"],
        "e": inputs["e"],
        "derivatives": "analytic" if args.analytic else "finite-difference",
        "masked_fraction": float(mask.mean()),
        "checks": entries,
    }


#: The grid files that ``invert -o`` writes, in the order of :func:`cmd_invert`.
_OUTPUT_GRIDS = ("A_full.dkp5", "A_gauge_fixed.dkp5", "gauge_term.dkp5", "F_potential.dkp5",
                 "F_bilinear.dkp5", "mask.dkp5")


def cmd_invert(args) -> int:
    grid_paths = [os.path.join(args.outdir, name) for name in _OUTPUT_GRIDS] if args.outdir else []
    # The -o directory is an output too: it may not be an input or the report.
    inputs = _lattice_inputs(args, [args.outdir, *grid_paths], args.outdir)
    # The grid and its gradient are popped into the call, so the pipeline,
    # which frees them after its derivative pass, holds their last reference.
    out, entries = invert_pipeline(inputs["rep"], inputs.pop("grid"), inputs["m"], inputs["e"],
                                   dphi=inputs.pop("dphi"), A_ref=inputs["a_ref"], tolerance=args.tolerance)
    payload = _lattice_payload(args, inputs, out.singular_mask, entries)
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        mask_grid = FieldGrid(out.a_full.extents, out.a_full.spacing, SCALAR, out.singular_mask.astype(float))
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
    "reduced_field_eq": "reduced_field_eq",
}


def cmd_residuals(args) -> int:
    inputs = _lattice_inputs(args)
    if inputs["a_ref"] is None:
        raise ParameterError("need a reference potential (--A flag or sidecar)")
    # The grid and its gradient are popped into the call, whose residual
    # stream frees them after the divergence relations.
    entries, (field_eq_max_abs, field_eq_rms), mask, kept = solution_report(
        inputs["rep"], inputs.pop("grid"), inputs["m"], inputs["e"], inputs["a_ref"],
        dphi=inputs.pop("dphi"), tolerance=args.tolerance,
        keep=_RESIDUAL_CSV_COLUMNS if args.csv_path else ())
    payload = _lattice_payload(args, inputs, mask, entries)
    payload["diagnostics"] = {
        "reduced_field_eq_max_abs": field_eq_max_abs,
        "reduced_field_eq_rms": field_eq_rms,
    }
    if args.json_path:
        write_report(args.json_path, payload)
    if args.csv_path:
        _residual_csv(args.csv_path, mask, {_RESIDUAL_CSV_COLUMNS[name]: v for name, v in kept.items()})
    for entry in entries:
        print(f"{'PASS' if entry['pass'] else 'FAIL'} {entry['identity']}: "
              f"max_abs={entry['max_abs']:.3e}")
    print(f"diagnostic reduced_field_eq max_abs={payload['diagnostics']['reduced_field_eq_max_abs']:.3e}")
    return EXIT_PASS if all_pass(entries) else EXIT_FAIL


#: (name, help line, argument adder, handler) of each sub-command, in the order of ``dkp --help``.
_SUBCOMMANDS = (
    ("verify-algebra", "check every matrix identity family", _verify_algebra_args, cmd_verify_algebra),
    ("reduce-word", "expand a generator word on the 25-element basis", _reduce_word_args, cmd_reduce_word),
    ("manufacture", "sample an exact plane-wave solution onto a grid file", _manufacture_args,
     cmd_manufacture),
    ("currents", "bilinear currents at every point of a stored grid", _currents_args, cmd_currents),
    ("invert", "reconstruct the potential and field strength from a grid", _invert_args, cmd_invert),
    ("residuals", "diagnostic residuals of the constraint and reduced systems", _add_residual_args,
     cmd_residuals),
)


def _parse_args(argv):
    """``build_parser().parse_args(argv)``, building no more than it needs:
    adding an argument costs far more than parsing one.  When argv[0] names
    a sub-command, the full parser hands all that follows to that
    sub-command's parser, which helps and fails on its own, under the same
    prog; so that parser is built alone and parses argv[1:].  The full
    parser parses argv itself when argv[0] names no sub-command (help,
    --version, no or an unknown command, a top-level option first), when
    arguments are left over, which it reports, and when an argument before
    "--" starts with "--=": the full parser reads every argument before
    the sub-command does, and rejects "--=x" as an abbreviation of both
    its --help and its --version."""
    name = argv[0] if argv else None
    row = next((row for row in _SUBCOMMANDS if row[0] == name), None)
    head = argv[: argv.index("--")] if "--" in argv else argv
    if row and not any(arg.startswith("--=") for arg in head):
        _, _, add_arguments, handler = row
        parser = argparse.ArgumentParser(prog=f"dkp {name}")
        add_arguments(parser)
        parser.set_defaults(func=handler)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run ``dkp`` on ``argv`` (default ``sys.argv[1:]``) and return its exit
    code; argv is parsed as the full parser parses it (:func:`_parse_args`)."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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
