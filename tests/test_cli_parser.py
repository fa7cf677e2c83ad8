"""`dkp` adds only the arguments of the sub-command it runs.

``build_parser(name)`` must help, parse and fail exactly as
``build_parser()``, which adds every sub-command's arguments.  The two
are compared in one interpreter, not against frozen text, since argparse
words its help and errors differently between Python versions.
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
    assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
    parsed = _outcome(one.parse_args, [name, *valid.split()], capsys)
    assert isinstance(parsed[0], argparse.Namespace)
    assert parsed == _outcome(full.parse_args, [name, *valid.split()], capsys)
    for argv in ([name, *bad.split()], [name, "--help"]):
        want = _outcome(full.parse_args, argv, capsys)
        assert want[0] in (0, 2)
        assert _outcome(one.parse_args, argv, capsys) == want
        assert _outcome(cli.main, argv, capsys) == want


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["frob"], ["--version", "frob"]])
def test_top_level_output_does_not_depend_on_the_subcommand_built(argv, capsys):
    want = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert want[0] in (0, 2)
    for command in [*CASES, "frob"]:
        assert _outcome(cli.build_parser(command).parse_args, argv, capsys) == want
    assert _outcome(cli.main, argv, capsys) == want


def test_main_adds_the_arguments_of_its_subcommand_only(monkeypatch, capsys):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(build(command)) or built[-1])
    assert cli.main(["verify-algebra", "--max-word-len", "0"]) == 0
    [parser] = built
    has_arguments = {name for name, p in _subparsers(parser).items() if len(p._actions) > 1}
    assert has_arguments == {"verify-algebra"}
    assert all(len(p._actions) > 1 for p in _subparsers(build()).values())
