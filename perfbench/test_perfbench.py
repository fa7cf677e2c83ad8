"""Checks of the benchmark itself, on small inputs.

    python3 -m pytest perfbench -q

Negative controls must count as failed ops, one seed must regenerate
byte-identical inputs, per-op counts must repeat between runs, the
reference loop must not import dkp5, and the metric names must match
BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "invert_fd": lambda seed: workloads.InvertFd(seed, extent=6),
    "currents_csv": lambda seed: workloads.CurrentsCsv(seed, extent=3),
    "exact_algebra": lambda seed: workloads.ExactAlgebra(seed, max_word_len=2, fierz_samples=2),
}


def _dirs(tmp_path):
    indir, outdir = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    return str(indir), str(outdir)


def _one_op(workload, indir, outdir):
    """One op through the benchmark's own loop; returns its record."""
    return run.measure(workload, indir, outdir, 0, None)[1][0]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_op_passes(name, tmp_path):
    indir, outdir = _dirs(tmp_path)
    workload = SMALL[name](3)
    workload.generate(indir)
    assert _one_op(workload, indir, outdir)["problems"] == []


def test_corrupt_generator_is_a_failed_op(tmp_path):
    indir, outdir = _dirs(tmp_path)
    workload = workloads.ExactAlgebra(3, max_word_len=2, fierz_samples=2,
                                      extra_args=["--corrupt-generator", "2"])
    assert "exit code 1, want 0" in _one_op(workload, indir, outdir)["problems"]


def test_wrong_sidecar_potential_is_a_failed_op(tmp_path):
    indir, outdir = _dirs(tmp_path)
    workload = SMALL["invert_fd"](3)
    workload.generate(indir)
    sidecar = Path(indir) / (workload.grid_file + ".json")
    data = json.loads(sidecar.read_text())
    data["A"][1] += 0.1
    sidecar.write_text(json.dumps(data))
    assert "exit code 1, want 0" in _one_op(workload, indir, outdir)["problems"]


@pytest.mark.parametrize("cut", ["last_row", "mid_field"])
def test_truncated_csv_is_a_failed_op(cut, tmp_path):
    indir, outdir = _dirs(tmp_path)
    workload = SMALL["currents_csv"](3)
    workload.generate(indir)
    assert _one_op(workload, indir, outdir)["problems"] == []
    path = Path(outdir) / "currents.csv"
    data = path.read_bytes()
    if cut == "last_row":
        data = data[: data.rstrip(b"\r\n").rfind(b"\n") + 1]
    else:
        data = data[:-5]
    path.write_bytes(data)
    problems, _ = run.check_op(workload, 0, indir, outdir)
    assert problems


@pytest.mark.parametrize("name", ["invert_fd", "currents_csv"])
def test_seed_regenerates_identical_inputs(name, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        SMALL[name](seed).generate(str(d))
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = files(5, "a")
    assert first and first == files(5, "b")
    assert files(6, "c") != first


def test_counts_repeat_between_runs(tmp_path):
    def counts(run_index):
        metrics = {}
        for name, make in SMALL.items():
            base = tmp_path / f"{name}-{run_index}"
            base.mkdir()
            indir, outdir = _dirs(base)
            tracer = spans.Tracer()
            workload = make(4)
            setups = []
            warmup, ops = run.measure(
                workload, indir, outdir, 0, tracer,
                lambda: setups.append(run.setup(workload, indir, tracer, len(setups))))
            assert not any(op["problems"] for op in warmup + ops)
            assert len(setups) == len(warmup + ops) and min(setups) > 0
            values, inconsistent = tracer.summary(
                [op["id"] for op in ops if op["traced"]], [f"setup{i}" for i in range(len(setups))])
            assert inconsistent == []
            metrics[name] = {k: v for k, v in values.items() if not k.endswith("_s")}
        return metrics

    first = counts(0)
    assert first["invert_fd"]["bilinears.compute_currents_grid.points"] == 6**4
    assert first["invert_fd"]["reports.entry_from_values.calls"] == 15
    assert first["currents_csv"]["bilinears.compute_currents.calls"] == 3**4
    assert first["exact_algebra"]["words.words_checked"] == 4 + 16
    assert first == counts(1)


def test_reference_loop_does_not_touch_dkp5():
    loaded = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name == "dkp5" or name.startswith("dkp5.")}
    try:
        assert run.reference_loop() > 0
        assert not [name for name in sys.modules if name.startswith("dkp5")]
    finally:
        sys.modules.update(loaded)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [HERE.name]


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact_algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
