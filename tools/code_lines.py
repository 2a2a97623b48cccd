"""Code lines per module of `src/mrenew`, and their total.

    python3 tools/code_lines.py [directory]

counts the modules of `src/mrenew` in the checkout this script sits in,
or the `*.py` files of the given directory.  A code line is a physical
line that holds a token of code: blank lines, comment lines and the lines
of a docstring (the string that opens a module, class or function body)
do not count, and a statement that spans several lines counts each of
them.  One line is printed per module, its code lines then its file name,
and a last line with the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mrenew"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv) -> None:
    src = Path(argv[0]) if argv else SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
