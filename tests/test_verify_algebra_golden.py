"""`dkp verify-algebra` reports against golden bytes.

Each case's files under ``golden/verify_algebra`` were written by the
program before both scalar modes shared one representation builder:
``<name>.json`` is the ``--json`` report and ``<name>.out`` the standard
output.  The report, the output (with and without ``--json``) and the
exit code must stay as they were, byte for byte.
"""

from pathlib import Path

import pytest

from dkp5.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify_algebra"

#: name: (arguments, exit code)
CASES = {
    "exact_words4_fierz10_seed1": ("--mode exact --max-word-len 4 --fierz-samples 10 --seed 1", 0),
    "exact_words5_fierz100_seed3": ("--mode exact --max-word-len 5 --fierz-samples 100 --seed 3", 0),
    "float_words4_fierz10": ("--mode float --max-word-len 4 --fierz-samples 10", 0),
    "float_corrupt2": ("--mode float --corrupt-generator 2", 1),
    "exact_corrupt1": ("--mode exact --corrupt-generator 1", 1),
    "float_corrupt0_words3": ("--mode float --corrupt-generator 0 --max-word-len 3", 1),
}


@pytest.mark.parametrize("name", CASES)
def test_verify_algebra_matches_golden_bytes(name, tmp_path, capsys):
    args, code = CASES[name]
    report = tmp_path / "report.json"
    stdout = (GOLDEN / f"{name}.out").read_text()
    assert main(["verify-algebra", *args.split(), "--json", str(report)]) == code
    assert capsys.readouterr() == (stdout, "")
    assert report.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    assert main(["verify-algebra", *args.split()]) == code
    assert capsys.readouterr() == (stdout, "")
