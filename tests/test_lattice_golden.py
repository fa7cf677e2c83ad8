"""`dkp invert`, `residuals` and `currents` against golden bytes.

The inputs under ``golden/lattice`` are committed files, so that no
``np.exp`` runs in the test: ``wave.dkp5`` (with its sidecar) is the
seed-1 ``invert_fd`` plane wave of ``perfbench/workloads.py`` at 4^4,
and ``field.dkp5`` a seeded ``np.random.default_rng(5)`` normal field on
4 x 5 x 3 x 4 points, with whole points zeroed and components of -0.0.
Each case's ``<name>.json`` holds the exit code, the standard output
and error, the ``--json`` report of ``invert`` and ``residuals``
verbatim, and the sha256 of every other file that the command wrote (the
grids, the CSV files and the per-point JSON of ``currents``).  Every one
must stay as it is, byte for byte.

    python tests/test_lattice_golden.py   # rewrite the golden records
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from dkp5.cli import main

GOLDEN = Path(__file__).parent / "golden" / "lattice"
INPUTS = ("wave.dkp5", "wave.dkp5.json", "field.dkp5")

_WAVE = "--grid wave.dkp5"
_FIELD = "--grid field.dkp5 --m 1.1 --e 0.8 --A 0.3,-0.2,0.1,0.25"
_INVERT = "--json report.json --csv residuals.csv -o grids"
_RESIDUALS = "--json report.json --csv residuals.csv"
_CURRENTS = "--json currents.json --csv currents.csv"

#: name: dkp arguments, run in a directory that holds the inputs
CASES = {
    "wave_invert_fd": f"invert {_WAVE} --fd --tolerance 0.022535014239611125 {_INVERT}",
    "wave_invert_analytic": f"invert {_WAVE} --analytic {_INVERT}",
    "wave_residuals_fd": f"residuals {_WAVE} --fd {_RESIDUALS}",
    "wave_residuals_analytic": f"residuals {_WAVE} --analytic {_RESIDUALS}",
    "wave_currents_files": f"currents {_WAVE} {_CURRENTS}",
    "wave_currents_stdout": f"currents {_WAVE}",
    "field_invert_fd": f"invert {_FIELD} {_INVERT}",
    "field_residuals_fd": f"residuals {_FIELD} {_RESIDUALS}",
    "field_currents_files": f"currents --grid field.dkp5 {_CURRENTS}",
    "field_currents_stdout": "currents --grid field.dkp5",
}


def _record(name, workdir, run):
    """The golden record of one case, run in ``workdir`` by ``run(argv)``,
    which returns the exit code, standard output and standard error."""
    for path in INPUTS:
        shutil.copy(GOLDEN / path, workdir / path)
    code, out, err = run(CASES[name].split())
    report = workdir / "report.json"
    written = sorted(p for p in workdir.rglob("*") if p.is_file() and p.name not in INPUTS)
    return {
        "exit": code,
        "stdout": out,
        "stderr": err,
        "report": report.read_text() if report.exists() else None,
        "sha256": {p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in written if p != report},
    }


@pytest.mark.parametrize("name", CASES)
def test_lattice_command_matches_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert _record(name, tmp_path, lambda argv: (main(argv), *capsys.readouterr())) == want


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            record = _record(case, Path(tmp), _run_captured)
            os.chdir(GOLDEN)
        (GOLDEN / f"{case}.json").write_text(json.dumps(record, indent=1) + "\n")
        print(f"{case}: exit {record['exit']}")
