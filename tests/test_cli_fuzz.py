"""The exit-code contract under generated input: any argv, over small generated
grid files and sidecars, ends in exit 0, 1 or 2 and prints no traceback."""

import contextlib
import io
import json
import os
import struct
import tempfile
import traceback
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dkp5.cli import main

#: Values of each flag, valid or on the edge of valid; a name in braces is
#: a file of the case (see the test).
PATHS = ["{out}", "{out}", "{out}/x", "{dir}", "{grid}", "{missing}"]
VALUES = {
    "--mode": ["exact", "float"],
    "--max-word-len": ["0", "1", "2", "3"],
    "--tol": ["1e-12", "0", "1e308"],
    "--fierz-samples": ["0", "3"],
    "--seed": ["0", "7"],
    "--corrupt-generator": ["0", "3"],
    "--p": ["1.25,0.75,0,0", "1.25,0.75,0,0", "1,0,0,0", "1.5,0,0,0", "1e200,0,0,0"],
    "--A": ["0,0,0,0", "0,0,0,0", "0.2,0.1,-0.2,0.15", "1e308,0,0,0"],
    "--m": ["1", "1", "0.5", "0", "1e308", "1e-300"],
    "--e": ["1", "1", "0.8", "0", "1e308", "1e-300"],
    "--amplitude": ["1,0", "0,0", "1e308,0", "1e-200,1", "1"],
    "--extents": ["6,4,1,1", "3,3,3,1", "4,1,1,1", "2,1,1,1", "100000,100000,100000,100000"],
    "--spacing": ["0.1", "0.05,0.1,1,1", "1e-150", "1e-160"],
    "--tolerance": ["1e-10", "0", "1"],
    "--grid": ["{grid}"] * 6 + ["{missing}", "{dir}"],
    "--sidecar": ["{sidecar}", "{missing}", "{grid}", "{dir}"],
    "--json": PATHS, "--csv": PATHS, "-o": PATHS,
}
#: What a value off its flag's list is drawn from.
ANY_VALUE = sorted({v for values in VALUES.values() for v in values}
                   | {"", "-1", "nan", "inf", "-inf", "1e-320", "abc", "1,2", "0,1,1,1"})
#: A run of each subcommand that succeeds on a good grid; an argv starts
#: from it three times in four.  Later flags override it (argparse keeps
#: the last value of an option).
BASE = {
    "verify-algebra": ["--max-word-len", "2"],
    "reduce-word": ["0,1,0"],
    "manufacture": ["--p", "1.25,0.75,0,0", "--A", "0,0,0,0", "--m", "1", "--e", "1",
                    "--extents", "4,3,1,1", "--spacing", "0.1", "-o", "{out}"],
    "currents": ["--grid", "{grid}"],
    "invert": ["--grid", "{grid}", "--m", "1", "--e", "1"],
    "residuals": ["--grid", "{grid}", "--m", "1", "--e", "1", "--A", "0,0,0,0"],
}
#: Each subcommand's flags, any of which an argv may add ("bogus" is no subcommand).
FLAGS = {
    "verify-algebra": ["--mode", "--max-word-len", "--tol", "--fierz-samples", "--seed", "--json",
                       "--corrupt-generator"],
    "reduce-word": ["--json"],
    "manufacture": ["--p", "--A", "--m", "--e", "--amplitude", "--extents", "--spacing", "-o"],
    "currents": ["--grid", "--json", "--csv"],
    "invert": ["--grid", "--sidecar", "--m", "--e", "--A", "--analytic", "--fd", "--tolerance",
               "--json", "--csv", "-o"],
    "bogus": ["--grid"],
}
FLAGS["residuals"] = FLAGS["invert"][:-1]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1, -1, 0.5, 1e308, 1e-320, "1", "x"]),
    lambda inner: st.lists(inner, max_size=5), max_leaves=8)
SIDECAR_KEYS = ["p", "A", "m", "e", "amplitude", "extents", "spacing"]


@st.composite
def argvs(draw):
    """A subcommand, mostly its base run, then a few of its flags; a value is
    off its flag's list one time in eight."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command] + (BASE.get(command, []) if draw(st.integers(0, 3)) < 3 else [])
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=4, unique=True)):
        argv.append(flag)
        if flag not in ("--analytic", "--fd"):
            wild = draw(st.integers(0, 7)) == 7
            argv.append(draw(st.sampled_from(ANY_VALUE if wild else VALUES[flag])))
    return argv


@st.composite
def grid_bytes(draw):
    """A small grid file: header from near-plausible fields, payload scaled
    from tiny to huge, sometimes cut short or with a byte flipped."""
    kind = draw(st.sampled_from([5] * 9 + [1, 4, 16, 3]))
    odd = draw(st.integers(0, 7)) == 7  # extents and spacings off the usual values
    extents = draw(st.lists(st.sampled_from([0, 1, 2, 5] if odd else [1, 3, 4]),
                            min_size=4, max_size=4))
    spacing = [draw(st.sampled_from([1e-150, 1e-160, -0.1, 0.0]))] * 4 if odd else [0.1] * 4
    n_values = int(np.prod(extents)) * kind
    scale = draw(st.sampled_from([1.0, 0.0, 1e-200, 1e150, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    payload = scale * (rng.standard_normal(n_values) + 1j * rng.standard_normal(n_values))
    raw = struct.pack("<4sIB4Q4d", b"DKP5", 1, kind, *extents, *spacing)
    raw += payload.astype("<c16").tobytes()
    if draw(st.integers(0, 5)) == 5:
        raw = bytearray(raw)
        raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        raw = bytes(raw[: draw(st.integers(0, len(raw)))])
    return raw


@st.composite
def sidecars(draw):
    """None (no sidecar), a text that is not JSON, a JSON value that is not an
    object, or an object of drawn fields."""
    shape = draw(st.sampled_from(["none", "object", "object", "object", "text", "list"]))
    if shape == "none":
        return None
    if shape == "text":
        return draw(st.sampled_from(["{", "nan", "[1, 2", "\x00"]))
    if shape == "list":
        return json.dumps(draw(JSON_VALUES))
    keys = draw(st.lists(st.sampled_from(SIDECAR_KEYS), unique=True))
    fields = {key: draw(JSON_VALUES) for key in keys}
    if draw(st.integers(0, 3)) < 3:  # a plausible plane wave, some fields then redrawn
        fields = {"p": [1.25, 0.75, 0, 0], "A": [0, 0, 0, 0], "m": 1, "e": 1,
                  "amplitude": [1, 0], **fields}
    return json.dumps(fields)


@given(argv=argvs(), grid=grid_bytes(), sidecar=sidecars())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_argv_keeps_the_exit_code_contract(tmp_path, argv, grid, sidecar):
    """Run in-process: an exception escaping main is a traceback the user would see."""
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    (case / "grid.dkp5").write_bytes(grid)
    if sidecar is not None:
        (case / "grid.dkp5.json").write_text(sidecar)
    (case / "dir").mkdir()
    files = {"grid": case / "grid.dkp5", "sidecar": case / "grid.dkp5.json", "dir": case / "dir",
             "missing": case / "missing.dkp5", "out": case / "out"}
    argv = [value.format(**files) for value in argv]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(case)  # a value taken as a relative path lands in the case
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
        except BaseException:
            raise AssertionError(f"{argv}: {traceback.format_exc()}") from None
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
