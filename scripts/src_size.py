#!/usr/bin/env python3
"""How big ``src/`` is at a git revision and in the work tree.

    python3 scripts/src_size.py            # against HEAD
    python3 scripts/src_size.py cd9c931

Prints, for the ``*.py`` files under ``src/`` at ``<rev>`` and in the
work tree: the number of files, their ``wc -l`` lines, and their code
lines — lines that carry a token other than a comment, apart from
module, class and function docstrings — then the delta between the
two.  This is the size CHANGES.md entries report.

The revision comes from ``git archive`` piped into ``tar`` (as in
``bench_compare.py``), so nothing is registered in ``.git``.  Standard
library only (``ast`` finds the docstrings, ``tokenize`` the code).
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("files", "wc -l", "code")
#: Tokens that never make a line a code line.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers the module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` with a token that is neither a comment nor
    part of a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def measure(src: Path) -> dict[str, int]:
    """``files``, ``wc -l`` and ``code`` over every ``*.py`` under ``src``."""
    size = dict.fromkeys(COLUMNS, 0)
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        size["files"] += 1
        size["wc -l"] += data.count(b"\n")
        size["code"] += code_lines(data.decode("utf-8"))
    return size


def measure_rev(rev: str, root: Path = ROOT) -> dict[str, int]:
    """:func:`measure` over ``src/`` as committed at ``rev``."""
    with tempfile.TemporaryDirectory(prefix="src-size-") as tmp:
        archive = subprocess.Popen(
            ["git", "-C", str(root), "archive", "--format=tar", rev, "src"],
            stdout=subprocess.PIPE,
        )
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")
        return measure(Path(tmp) / "src")


def render(rev: str, before: dict[str, int], after: dict[str, int]) -> str:
    rows = [("src/", *COLUMNS), (rev, *(f"{before[c]:,}" for c in COLUMNS)),
            ("work tree", *(f"{after[c]:,}" for c in COLUMNS)),
            ("delta", *(f"{after[c] - before[c]:+,}" for c in COLUMNS))]
    width = max(len(row[0]) for row in rows)
    return "\n".join(
        f"{row[0]:<{width}}" + "".join(f"{cell:>9}" for cell in row[1:])
        for row in rows
    )


def main(argv: list[str] | None = None, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    args = parser.parse_args(argv)
    print(render(args.rev, measure_rev(args.rev, root), measure(root / "src")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
