"""Count the code under ``src/repro``: lines, statements, and statements
that are not docstrings.

The size measure every ROADMAP anchor quotes.  A statement is any
``ast.stmt`` node, nested ones included; a docstring is a statement that
is a bare string expression.  Standard library only, and not a test
module, so pytest does not collect it.

Run:  python tests/count_statements.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def count(root: Path = ROOT):
    """``(lines, statements, non-docstring statements)`` of every
    ``.py`` file under ``root``."""
    lines = statements = docstrings = 0
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines += len(source.splitlines())
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if isinstance(node, ast.stmt):
                statements += 1
                docstrings += _is_docstring(node)
    return lines, statements, statements - docstrings


def main() -> int:
    lines, statements, code = count()
    print(f"{ROOT}: {lines:,} lines, {statements:,} statements, "
          f"{code:,} non-docstring statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
