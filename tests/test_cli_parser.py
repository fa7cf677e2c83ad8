"""`dkp` builds only the parser of the sub-command it runs.

When argv[0] names a sub-command, ``main`` builds that sub-command's parser
alone and parses the rest of argv with it; it builds the full parser
``build_parser()``, which holds every sub-command, when argv[0] names none,
when arguments are left over, and for an argument the full parser alone
finds ambiguous ("--=x").  On every argv here, and on argv drawn from each
sub-command's flags, ``main`` must help, parse and fail exactly as the full
parser.  The two are compared in one interpreter, not against frozen text,
since argparse words its help and errors differently between Python
versions; CI runs this file at more than one terminal width, since
argparse wraps usage and help to it.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_fuzz import ANY_VALUE, VALUES

from dkp5 import cli

#: name: (a representative argv after the name, a usage error after it)
CASES = {
    "verify-algebra": ("--mode float --max-word-len 2 --tol 1e-9 --fierz-samples 3 --seed 4 "
                       "--json r.json", "--mode double"),
    "reduce-word": ("0,1,0 --json w.json", "0,1 --tol 1"),
    "manufacture": ("--p 1,0,0,0 --A 0,0,0,0 --m 1 --e 1 --amplitude 1,2 --extents 8,1,1,1 "
                    "--spacing 0.1 -o pw.dkp5", "--p 1,0,0 --A 0,0,0,0"),
    "currents": ("--grid g.dkp5 --json c.json --csv c.csv", "--csv c.csv"),
    "invert": ("--grid g.dkp5 --analytic --m 1 --e 1 --A 0,1,2,3 --tolerance 1e-9 -o out",
               "--grid g.dkp5 --analytic --fd"),
    "residuals": ("--grid g.dkp5 --sidecar s.json --fd --csv r.csv", "--grid g.dkp5 --tolerance -1"),
}


def _outcome(parse, argv):
    """(Namespace or exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", CASES)
def test_one_subcommand_helps_parses_and_fails_as_with_all(name):
    valid, bad = CASES[name]
    full = cli.build_parser()
    parsed = _outcome(cli._parse_args, [name, *valid.split()])
    assert isinstance(parsed[0], argparse.Namespace)
    assert parsed == _outcome(full.parse_args, [name, *valid.split()])
    # With "-h" first, the top-level help runs before the sub-command is parsed.
    for argv in ([name, *bad.split()], [name, "--help"], [name, "-h"], ["-h", name],
                 [name, *valid.split(), "--frob"], [name, "--frob", "1"]):
        want = _outcome(full.parse_args, argv)
        assert want[0] in (0, 2)
        assert _outcome(cli.main, argv) == want


@pytest.mark.parametrize("argv", [
    ["--help"], ["--version"], [], ["frob"], ["--version", "frob"], ["--version", "invert"],
    ["--frob", "verify-algebra"],
    # A sub-command first, but left over or ambiguous arguments that the full parser reports.
    ["reduce-word", "--frob", "1"], ["currents", "--grid", "invert", "--frob"],
    ["invert", "--grid", "g", "--", "x"], ["verify-algebra", "--version"],
    ["reduce-word", "--=1"], ["verify-algebra", "--seed", "1", "--=x", "--mode", "double"]])
def test_top_level_output_does_not_depend_on_the_subcommand_built(argv):
    """Every argv that the full parser parses itself fails or helps as it does."""
    want = _outcome(cli.build_parser().parse_args, argv)
    assert want[0] in (0, 2)
    assert _outcome(cli.main, argv) == want


def test_main_builds_the_full_parser_for_left_over_arguments_only(monkeypatch):
    """A well-formed sub-command argv builds no full parser; an argument left
    over builds it once, which reports that argument."""
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    argv = ["verify-algebra", "--max-word-len", "0"]
    assert _outcome(cli.main, argv)[0] == 0
    assert built == []
    assert _outcome(cli.main, [*argv, "--frob"])[0] == 2
    assert len(built) == 1


#: What an argv may hold beside a sub-command's own flags and values.
STRAYS = ["-h", "--help", "--", "--version", "--frob", "-x", "--=x", "x", "-1"]


@st.composite
def subcommand_argvs(draw):
    """A sub-command, then a few items: one of its flags with a value from
    that flag's list (or its choices), off it one time in four, a stray
    value or flag, or a drawn option string such as an abbreviation."""
    name = draw(st.sampled_from(sorted(CASES)))
    actions = {s: a for a in _subparsers(cli.build_parser())[name]._actions for s in a.option_strings}
    argv = [name]
    for kind in draw(st.lists(st.integers(0, 3), max_size=6)):
        if kind < 2:
            flag = draw(st.sampled_from(sorted(actions)))
            argv.append(flag)
            if actions[flag].nargs != 0:
                valid = [str(c) for c in actions[flag].choices or ()] or VALUES.get(flag, ANY_VALUE)
                argv.append(draw(st.sampled_from(ANY_VALUE if draw(st.integers(0, 3)) == 3 else valid)))
        elif kind == 2:
            argv.append(draw(st.sampled_from(STRAYS + ANY_VALUE)))
        else:
            argv.append(draw(st.from_regex(r"--?[a-z=]{0,4}", fullmatch=True)))
    return argv


@given(argv=subcommand_argvs())
@settings(max_examples=300, deadline=None)
def test_drawn_argv_parse_as_with_the_full_parser(argv):
    """The parse route of ``main`` alone: no command runs."""
    assert _outcome(cli._parse_args, argv) == _outcome(cli.build_parser().parse_args, argv)
