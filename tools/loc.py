"""Physical and code lines of each module of ``src/ffreach``.

    python3 tools/loc.py
    python3 tools/loc.py OTHER_CHECKOUT

Run from the root of a checkout; nothing is written.  A code line is a line
that is not blank, not a comment alone, and not inside a module, class or
function docstring, so deleting a docstring or a comment changes only the
physical count.  The first form prints both counts for every module of this
checkout, with totals.  The second prints OTHER_CHECKOUT's counts (say, a
clone of the parent commit) beside this checkout's, with the differences,
for every module either checkout has.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that make no line a code line on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The ``(line, column)`` where each module, class and function
    docstring starts, as the tokenizer gives a token's start."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """``(physical lines, code lines)`` of one module's source."""
    docstrings = docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT and not (token.type == tokenize.STRING and token.start in docstrings):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def counts(root: Path) -> dict[str, tuple[int, int]]:
    """Module name -> ``(physical, code)`` for the checkout at ``root``,
    then ``"total"``."""
    package = root / "src" / "ffreach"
    if not package.is_dir():
        raise SystemExit(f"loc.py: {root} is not the root of a checkout")
    table = {path.stem: count(path.read_text()) for path in sorted(package.glob("*.py"))}
    table["total"] = tuple(sum(column) for column in zip(*table.values()))
    return table


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 tools/loc.py [OTHER_CHECKOUT]", file=sys.stderr)
        return 64
    mine = counts(Path.cwd())
    if not argv:
        print(f"{'module':<12} {'lines':>6} {'code':>6}")
        for name, (lines, code) in mine.items():
            print(f"{name:<12} {lines:>6} {code:>6}")
        return 0
    other = counts(Path(argv[0]).resolve())
    print(f"{'':<12} {'other':^13}   {'this':^13}   {'change':^13}".rstrip())
    print(f"{'module':<12} {'lines':>6} {'code':>6}   {'lines':>6} {'code':>6}   {'lines':>6} {'code':>6}")
    for name in [*sorted({*other, *mine} - {"total"}), "total"]:
        (lines0, code0), (lines1, code1) = other.get(name, (0, 0)), mine.get(name, (0, 0))
        print(
            f"{name:<12} {lines0:>6} {code0:>6}   {lines1:>6} {code1:>6}   "
            f"{lines1 - lines0:>+6} {code1 - code0:>+6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
