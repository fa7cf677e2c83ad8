#!/usr/bin/env python3
"""Benchmark of the ``dkp`` command line, one workload per run.

    python3 perfbench/run.py --workload invert_fd --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dkp5 is imported from ``src/``.
One serial closed-loop client calls ``dkp5.cli.main(argv)`` in this
process, checks each op's output, and starts the next op when the check
is done, until ``--seconds`` have passed.

Before every op, and once after the last, the run sets the inputs up
afresh (import of dkp5 plus generating the seeded inputs) and times
``reference_loop``, a fixed piece of work that does not touch dkp5.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics: the median over the ops of the op time in units of
the reference loops timed just before and just after it, the peak RSS
of the process and the median set-up time.  With
``--trace 1`` it reports the per-layer metrics of ``spans.LAYERS``: ops
alternate traced and untraced, and ``trace.overhead_s`` is the traced minus the
untraced median.  The spans are written to ``.perfbench/`` when the run
ends.  Earlier lines give the sample counts and the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"op_p50_ref": "ref", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {**spans.per_layer_metrics(), "trace.overhead_s": "s"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def import_dkp5():
    """Import dkp5 and its front end afresh; the package's own set-up cost."""
    for name in [n for n in sys.modules if n == "dkp5" or n.startswith("dkp5.")]:
        del sys.modules[name]
    importlib.import_module("dkp5.cli")


def setup(workload, indir, tracer, index):
    """One set-up: import dkp5 and write the seeded inputs; returns seconds."""
    start = time.perf_counter()
    import_dkp5()
    if tracer is not None:
        tracer.install()
        tracer.op_id = f"setup{index}"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            workload.generate(indir)
    finally:
        if tracer is not None:
            tracer.op_id = None
            tracer.uninstall()
    return time.perf_counter() - start


def reference_loop():
    """Seconds of a fixed mix of work that does not touch dkp5.

    A third each: products of 5x5 matrices of Fractions, float formatting
    and a dict in the interpreter, and elementwise numpy arithmetic over
    4 MB -- the kinds of work the workloads do.  The host's speed drifts
    by a fifth and more over minutes; the ops and this loop drift
    together, so op time over loop time stays steady where op seconds do
    not.
    """
    import numpy as np

    start = time.perf_counter()
    m = [[Fraction(i + 1, j + 2) for j in range(5)] for i in range(5)]
    n = [[Fraction(j - i, i + 3) for j in range(5)] for i in range(5)]
    for _ in range(25):
        product = [[sum(m[i][k] * n[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    text = ",".join(repr(i / 7) for i in range(10000))
    table = {i: text[i : i + 8] for i in range(10000)}
    a = np.linspace(0.0, 1.0, 500_000)
    for _ in range(4):
        a = np.sqrt(a * a + 1.0) - 0.5 * a
    if product[0][0] != Fraction(-53, 140) or len(table) != 10000 or not np.isfinite(a).all():
        raise RuntimeError("reference loop computed a wrong result")
    return time.perf_counter() - start


def run_op(workload, indir, outdir):
    """Call the front end once; returns (seconds, exit code, error, output)."""
    from dkp5 import cli

    argv = workload.argv(indir, outdir)
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed op, not a failed benchmark
        code, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, error, sink.getvalue()


def check_op(workload, code, indir, outdir):
    try:
        return workload.check(code, indir, outdir)
    except Exception as exc:  # unreadable or missing output
        return [f"output check raised {type(exc).__name__}: {exc}"], {}


def measure(workload, indir, outdir, seconds, tracer, set_up=None):
    """Closed loop of ops for ``seconds``; returns (warm-up ops, measured ops).

    ``set_up``, if given, is called before every op and its time counts
    towards ``seconds``.

    The run first makes one warm-up op, which is checked but neither
    traced nor timed.  A new op starts only if, at the mean cycle time so
    far, it ends within ``seconds``; there is always at least one op.  A
    traced run makes at least two, in the pattern traced, untraced,
    untraced, traced, ... so that neither side always runs first.
    """

    def one(op_id, traced):
        if set_up is not None:
            set_up()
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        gc.collect()  # garbage of the last op and its check is not collected in this one
        if traced:
            tracer.install()
            tracer.op_id = op_id
        try:
            dt, code, error, output = run_op(workload, indir, outdir)
        finally:
            if traced:
                tracer.op_id = None
                tracer.uninstall()
        problems, observed = ([error], {}) if error else check_op(workload, code, indir, outdir)
        if traced:
            tracer.record(op_id, "cli.output_bytes", _tree_bytes(outdir))
            for name, value in observed.items():
                tracer.record(op_id, name, value)
        if problems:
            print(f"  {op_id} FAILED: {'; '.join(problems)}", file=sys.stderr)
            print("    " + "\n    ".join(output.splitlines()[-3:]), file=sys.stderr)
        return {"id": op_id, "seconds": dt, "traced": traced, "problems": problems}

    warmup = [one("warmup", False)]
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        ops.append(one(f"op{i}", tracer is not None and i % 4 in (0, 3)))
        elapsed = time.perf_counter() - start
        enough = len(ops) >= (2 if tracer is not None else 1)
        if enough and elapsed * (len(ops) + 1) / len(ops) > seconds:
            return warmup, ops


def _cache_sizes():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _source_id():
    """The git commit of the checkout, or a digest of ``src/dkp5`` outside git."""
    try:
        return "git " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dkp5").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "sha256 " + digest.hexdigest()[:16]


def provenance(args, setups, references, ops, io_bytes, rss_growth_mb):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": _source_id(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "caches": _cache_sizes(),
        "io_bytes_per_op": io_bytes,
        "op_rss_growth_mb": rss_growth_mb,
        "setup_samples": len(setups),
        "reference_loop_p50_s": statistics.median(references),
        "op_p50_s": statistics.median(op["seconds"] for op in ops if not op["traced"]),
        "op_samples": len(ops),
        "traced_op_samples": sum(op["traced"] for op in ops),
    }


def notes(name, setups, ops):
    """How a metric was aggregated, with its sample count."""
    traced = sum(op["traced"] for op in ops)
    if name == "setup_s" or name.startswith("planewave."):
        return f"median of {len(setups)} set-ups"
    if name == "op_p50_ref":
        return f"median of {len(ops)} ops, each over the reference loops before and after it"
    if name == "peak_rss_mb":
        return "whole run"
    if name == "trace.overhead_s":
        return f"median of {traced} traced minus {len(ops) - traced} untraced ops"
    if name.endswith(".self_s"):
        return f"median of {traced} traced ops"
    return "per op"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dkp5" / "__init__.py").is_file():
        print(f"perfbench: no dkp5 source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = SCRATCH / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    indir, outdir = work / "in", work / "out"
    origin = importlib.util.find_spec("dkp5").origin
    if Path(origin).resolve().parent != (SRC / "dkp5").resolve():
        print(f"perfbench: dkp5 would be imported from {origin}, not {SRC}", file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    setups, references = [], []

    def set_up():
        setups.append(setup(workload, str(indir), tracer, len(setups)))
        references.append(reference_loop())

    try:
        os.makedirs(indir)
        rss_before = _maxrss_mb()
        warmup, ops = measure(workload, str(indir), str(outdir), args.seconds, tracer, set_up)
        set_up()  # the reference loop after the last op
        rss_growth = _maxrss_mb() - rss_before
        io_bytes = _tree_bytes(indir) + _tree_bytes(outdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in warmup + ops if op["problems"])
    correct = failed == 0
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    if tracer is None:
        # references[i] was timed just before op i of warmup + ops, the last one after all ops.
        around = zip(references[len(warmup):], references[len(warmup) + 1:])
        values = {
            "op_p50_ref": statistics.median(
                op["seconds"] / ((before + after) / 2) for op, (before, after) in zip(ops, around)),
            "peak_rss_mb": _maxrss_mb(),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    else:
        traced_ids = [op["id"] for op in ops if op["traced"]]
        values, inconsistent = tracer.summary(traced_ids, [f"setup{i}" for i in range(len(setups))])
        traced = [op["seconds"] for op in ops if op["traced"]]
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = PER_LAYER
        if inconsistent:
            correct = False
            print(f"perfbench: counts differ between ops: {inconsistent}", file=sys.stderr)

    prov = provenance(args, setups, references, ops, io_bytes, rss_growth)
    if tracer is not None:
        os.makedirs(SCRATCH, exist_ok=True)
        path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"provenance": prov, **tracer.dump()}, fh)
            fh.write("\n")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(warmup) + len(ops)} ops, {failed} failed")
    print("  op seconds " + " ".join(f"{op['seconds']:.3f}{'*' * op['traced']}" for op in ops)
          + ("  (* traced)" if tracer is not None else ""))
    print("  set-up seconds " + " ".join(f"{t:.4f}" for t in setups))
    print("  reference loop seconds " + " ".join(f"{t:.4f}" for t in references))
    for name, unit in units.items():
        value = values[name]
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"  {name:48s} {shown} {unit:6s} {notes(name, setups, ops)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(warmup) + len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
