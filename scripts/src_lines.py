#!/usr/bin/env python3
"""Count the code lines and physical lines of every module under a source tree.

A code line holds at least one code token: blank lines, comment-only
lines and the lines of module, class and function docstrings do not
count. Physical lines are all lines of the file. Prints one row per
module and a total row.

    python3 scripts/src_lines.py            # this checkout's src/
    python3 scripts/src_lines.py OTHER/src  # another checkout's
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(code lines, physical lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text))), len(text.splitlines())


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("root", nargs="?", default=Path(__file__).resolve().parent.parent / "src", type=Path)
    root = p.parse_args().root

    rows = [(str(f.relative_to(root)), *count(f.read_text())) for f in sorted(root.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}{'code':>8}{'physical':>10}")
    for name, code, physical in rows:
        print(f"{name:<{width}}{code:>8,}{physical:>10,}")


if __name__ == "__main__":
    main()
