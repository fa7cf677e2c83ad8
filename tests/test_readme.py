"""The commands of README.md's "Command line" block run as written."""

import re
import shlex
from pathlib import Path

from dkp5.cli import _SUBCOMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"

#: The options whose value names a file or directory that a command reads or writes.
_PATH_OPTIONS = ("--grid", "--json", "--csv", "-o")


def _commands():
    """The ``dkp`` lines of the ``sh`` block under "## Command line", each
    joined with its backslash continuations and split into argv."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("dkp ")]


def test_readme_commands_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    assert {argv[0] for argv in commands} == {row[0] for row in _SUBCOMMANDS}
    named = set()
    for argv in commands:
        assert main(argv) == 0, argv
        named.update(value for flag, value in zip(argv, argv[1:]) if flag in _PATH_OPTIONS)
    assert named and all((tmp_path / name).exists() for name in named)
