#!/usr/bin/env python3
"""Code lines of each module of src/dkp5 and their total.

A code line is a line that holds part of a token other than a comment,
and that is not part of a docstring (the first statement of a module,
class or function, when it is a string).  Blank lines, comment lines and
docstrings do not count; a line with code and a trailing comment counts
once, and every line of a statement that spans several counts.

    python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main():
    counts = {p.name: code_lines(p.read_text(encoding="utf-8"))
              for p in sorted((ROOT / "src" / "dkp5").glob("*.py"))}
    width = len(str(sum(counts.values())))
    for name, n in counts.items():
        print(f"{n:>{width}}  {name}")
    print(f"{sum(counts.values()):>{width}}  total")


if __name__ == "__main__":
    main()
