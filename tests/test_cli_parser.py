"""`dkp` builds only the sub-parser of the sub-command it runs.

``main`` parses argv with ``build_parser(name)`` when argv[0] names a
sub-command, and with the full parser ``build_parser()``, which holds
every sub-command, otherwise.  On every argv here ``main`` must help,
parse and fail exactly as the full parser.  The two are compared in one
interpreter, not against frozen text, since argparse words its help and
errors differently between Python versions; CI runs this file at more
than one terminal width, since argparse wraps usage and help to it.
"""

import argparse

import pytest

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


def _outcome(parse, argv, capsys):
    """(Namespace or exit code, stdout, stderr) of parse(argv)."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", CASES)
def test_one_subcommand_helps_parses_and_fails_as_with_all(name, capsys):
    valid, bad = CASES[name]
    one, full = cli.build_parser(name), cli.build_parser()
    assert one.format_usage() == full.format_usage()
    assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
    parsed = _outcome(one.parse_args, [name, *valid.split()], capsys)
    assert isinstance(parsed[0], argparse.Namespace)
    assert parsed == _outcome(full.parse_args, [name, *valid.split()], capsys)
    # With "-h" first, the top-level help runs before the sub-command is parsed.
    for argv in ([name, *bad.split()], [name, "--help"], [name, "-h"], ["-h", name],
                 [name, *valid.split(), "--frob"], [name, "--frob", "1"]):
        want = _outcome(full.parse_args, argv, capsys)
        assert want[0] in (0, 2)
        assert _outcome(cli.main, argv, capsys) == want


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["frob"], ["--version", "frob"],
                                  ["--version", "invert"], ["--frob", "verify-algebra"]])
def test_top_level_output_does_not_depend_on_the_subcommand_built(argv, capsys):
    want = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert want[0] in (0, 2)
    assert _outcome(cli.main, argv, capsys) == want


def test_main_adds_the_arguments_of_its_subcommand_only(monkeypatch, capsys):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(build(command)) or built[-1])
    assert cli.main(["verify-algebra", "--max-word-len", "0"]) == 0
    [parser] = built
    assert list(_subparsers(parser)) == ["verify-algebra"]
    assert all(len(p._actions) > 1 for p in _subparsers(build()).values())
