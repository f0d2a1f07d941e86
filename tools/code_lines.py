"""Print the code lines of each module of ``src/alarm_pipeline`` and their total.

A code line is a source line that holds some token other than a comment or
a docstring; blank lines, comment lines and docstring lines do not count.
A docstring is a string statement that opens a module, class or function.
A string that spans lines counts every line it spans; a blank line inside
brackets does not count.

    python tools/code_lines.py [PACKAGE_DIR] [--against REV]

With ``--against REV`` it prints, for each module and the total, the count
at git revision ``REV`` (``git show REV:./<module>`` in the package
directory, 0 for a module that is not there), the count now and the
difference. A module deleted since ``REV`` counts 0 now.

Standard library only, so it runs before the package is installed.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def git(package: Path, *args: str) -> str:
    """Standard output of a git command run in ``package``."""
    return subprocess.run(["git", "-C", str(package), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Code lines of each package module.")
    parser.add_argument("package", nargs="?", type=Path, default=PACKAGE)
    parser.add_argument("--against", metavar="REV",
                        help="also print each module's count at this git revision")
    args = parser.parse_args(argv)
    now = {path.name: code_lines(path.read_text(encoding="utf-8"))
           for path in args.package.glob("*.py")}
    if args.against is None:
        for name in sorted(now):
            print(f"{now[name]:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    try:
        listed = git(args.package, "ls-tree", "--name-only", args.against, "--", ".").splitlines()
        before = {name: code_lines(git(args.package, "show", f"{args.against}:./{name}"))
                  for name in listed if name.endswith(".py")}
    except subprocess.CalledProcessError as error:  # git has printed why
        return error.returncode
    print(f"{'before':>6s}  {'after':>6s}  {'delta':>6s}")
    rows = [(before.get(name, 0), now.get(name, 0), name) for name in sorted(before | now)]
    for old, new, name in rows + [(sum(before.values()), sum(now.values()), "total")]:
        print(f"{old:6d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
