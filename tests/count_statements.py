"""Count the code under ``src/repro``: lines, statements, and statements
that are not docstrings; and the knobs of its configuration surfaces.

The size measure every ROADMAP anchor quotes.  A statement is any
``ast.stmt`` node, nested ones included; a docstring is a statement that
is a bare string expression.  A knob is a value a caller may leave at
its default: a defaulted field of a configuration dataclass, or a
defaulted keyword parameter of a job or driver constructor.  Standard
library only, and not a test module, so pytest does not collect it.

Run:  python tests/count_statements.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the configuration surfaces, ``(module under ROOT, class)``
SURFACES = (
    ("fmi/config.py", "FmiConfig"),
    ("sched/spec.py", "JobSpec"),
    ("chaos/campaigns.py", "Campaign"),
    ("fmi/job.py", "FmiJob"),
    ("mpi/runtime.py", "MpiJob"),
    ("mpi/runtime.py", "MpiRestartDriver"),
    ("sched/scheduler.py", "StreamScheduler"),
)


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


def _settable(value: ast.expr) -> bool:
    """A field default, unless it is ``field(init=False, ...)``."""
    return not (isinstance(value, ast.Call)
                and getattr(value.func, "id", "") == "field"
                and any(kw.arg == "init"
                        and getattr(kw.value, "value", True) is False
                        for kw in value.keywords))


def knobs(root: Path = ROOT) -> int:
    """Settable values on :data:`SURFACES`: each defaulted dataclass
    field and each defaulted ``__init__`` parameter."""
    total = 0
    for module, name in SURFACES:
        tree = ast.parse((root / module).read_text(encoding="utf-8"))
        cls = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name == name)
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                total += _settable(stmt.value)
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                args = stmt.args
                total += len(args.defaults) + sum(
                    d is not None for d in args.kw_defaults)
    return total


def main() -> int:
    lines, statements, code = count()
    print(f"{ROOT}: {lines:,} lines, {statements:,} statements, "
          f"{code:,} non-docstring statements, {knobs()} knobs on "
          f"{len(SURFACES)} configuration surfaces")
    return 0


if __name__ == "__main__":
    sys.exit(main())
