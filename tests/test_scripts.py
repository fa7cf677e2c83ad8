"""The example scripts run end to end against the package in ``src``."""

import os
import runpy
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


STAGE_MEMORY = str(ROOT / "scripts" / "stage_memory.py")


def test_stage_memory_prints_every_stage():
    """scripts/stage_memory.py prints start, peak and end per stage, and the
    pipeline peak, then each stage's median wall time and the whole
    pipeline's, for both derivative modes."""
    stages = runpy.run_path(STAGE_MEMORY)["STAGES"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, STAGE_MEMORY, "--extent", "5"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "finite differences, 5^4 = 625 points" in out and "closed form, 5^4" in out
    for stage in ("lattice_currents", "field_strength_bilinear", "_solution_entries",
                  "reduced_system_residuals", "field_strength_from_potential", "_pipeline_checks"):
        assert out.count(stage) == 4, stage
    peaks = [float(line.split()[-1]) for line in out.splitlines() if "pipeline peak" in line]
    assert len(peaks) == 2 and all(p > 0 for p in peaks)
    tables = [block.split("\n\n")[0].splitlines()[1:]
              for block in out.split("(wall time, median of 5 untraced runs)")[1:]]
    assert len(tables) == 2
    for table in tables:  # every stage: the derivative pass forms the gauge term's bilinears too
        times = dict(line.strip().rsplit(None, 1) for line in table)
        assert len(times) == len(stages) + 1 and all(float(t) > 0 for t in times.values()), table
        whole = float(times.pop("whole pipeline"))
        assert whole >= max(float(t) for t in times.values())


def test_stage_memory_skips_a_stage_the_package_lacks(monkeypatch, capsys):
    """A name in the script's STAGES that dkp5.inversion lacks is skipped,
    and every other stage is still printed in each table of both modes."""
    main = runpy.run_path(STAGE_MEMORY)["main"]
    stages = main.__globals__["STAGES"]
    monkeypatch.setitem(main.__globals__, "STAGES", (*stages, "stage_not_in_the_package"))
    monkeypatch.setattr(sys, "argv", ["stage_memory.py", "--extent", "4"])
    main()
    out = capsys.readouterr().out
    assert "stage_not_in_the_package" not in out
    for stage in stages:
        assert out.count(f" {stage} ") == 4, stage


_COUNTED = '''"""Module docstring,
two lines."""

import os  # code with a comment

# a comment line


def f(x):
    """A function docstring."""
    y = (x +
         1)
    return y


class C:
    """A class docstring."""

    s = """a string that is
    not a docstring"""
'''


def test_code_lines_counts_code_not_docstrings_or_comments():
    """scripts/code_lines.py counts each line that holds code once, every line
    of a statement that spans several, and no blank, comment or docstring
    line; run, it prints the count of each src/dkp5 module and their total."""
    script = str(ROOT / "scripts" / "code_lines.py")
    code_lines = runpy.run_path(script)["code_lines"]
    assert code_lines(_COUNTED) == 8
    assert code_lines("# only a comment\n\n") == 0
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[1] for line in lines] == [
        p.name for p in sorted((ROOT / "src" / "dkp5").glob("*.py"))] + ["total"]
    assert int(lines[-1].split()[0]) == sum(int(line.split()[0]) for line in lines[:-1])
