#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/report.py --seeds 1-10 [--workloads invert_fd,exact_algebra] [--trace 0]

Each run is a fresh ``perfbench/run.py`` process with the ``run_seconds``
of BENCHMARK.json.  For every workload and metric the table gives the
median over the seeds, the quartiles, and the spread (third minus first
quartile over the median); for end-to-end metrics it also gives the
bound from BENCHMARK.json.  A count that differs between seeds is shown
with all its values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print("#   " + next((l.strip() for l in lines if "op seconds" in l), ""), flush=True)
    return json.loads(lines[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            result = run_one(workload, seed, spec["run_seconds"], args.trace)
            results.append(result)
            print(f"# {workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed}/{attempted} ops failed")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = first["unit"]
            if unit in ("count", "bytes"):
                shown = sorted(set(values))
                print(f"  {name:48s} {shown if len(shown) > 1 else shown[0]} {unit}")
                continue
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = f" bound {bounds[name]:.2f}" if name in bounds else ""
            print(f"  {name:48s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
