"""The example scripts run end to end against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["inversion_demo.py", "convergence_sweep.py"])
def test_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_stage_memory_prints_every_stage():
    """scripts/stage_memory.py prints start, peak and end per stage, and the
    pipeline peak, for both derivative modes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "stage_memory.py"), "--extent", "5"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "finite differences, 5^4 = 625 points" in out and "closed form, 5^4" in out
    for stage in ("lattice_currents", "field_strength_bilinear", "reduced_system_residuals",
                  "field_strength_from_potential", "_pipeline_checks"):
        assert out.count(stage) == 2, stage
    peaks = [float(line.split()[-1]) for line in out.splitlines() if "pipeline peak" in line]
    assert len(peaks) == 2 and all(p > 0 for p in peaks)
