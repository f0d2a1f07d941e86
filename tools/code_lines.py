"""Print the code lines of each module of ``src/alarm_pipeline`` and their total.

A code line is a source line that holds some token other than a comment or
a docstring; blank lines, comment lines and docstring lines do not count.
A docstring is a string statement that opens a module, class or function.
A string that spans lines counts every line it spans; a blank line inside
brackets does not count.

    python tools/code_lines.py [PACKAGE_DIR]

Standard library only, so it runs before the package is installed.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "alarm_pipeline"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) where each docstring of ``tree`` begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
