"""Count the code lines of each module of ``src/monoval``, and their total.

Usage: python3 tests/code_lines.py

A code line holds a token other than a comment, a newline or an indent;
a string or an expression that spans lines counts every line it spans.
The lines of module, class and function docstrings are not code.  This
is the count ``CHANGES.md`` reports.  Tier-1 does not collect this file,
since its name has no ``test_`` prefix.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "monoval"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
WITH_DOCSTRINGS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, WITH_DOCSTRINGS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
