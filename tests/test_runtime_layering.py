"""Guard: the shared runtime core stays stack-neutral.

``repro.runtime`` holds only what the MPI and FMI stacks both run
(``JobBase``, ``RankProcess``, ``JobAborted``, the ``FaultPolicy``
base); each stack's policy lives with the stack.  This walks every
module under ``src/repro/runtime`` and fails on any import of
``repro.fmi``, ``repro.mpi``, ``repro.sched`` or ``repro.chaos``,
however it is spelled.
"""

import ast
from pathlib import Path

RUNTIME = Path(__file__).resolve().parent.parent / "src" / "repro" / "runtime"
STACKS = ("repro.fmi", "repro.mpi", "repro.sched", "repro.chaos")


def _is_stack(module: str) -> bool:
    return any(module == s or module.startswith(s + ".") for s in STACKS)


def stack_imports(tree: ast.AST):
    """``(line, module)`` of every import of a stack package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_stack(alias.name):
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if _is_stack(module):
                yield node.lineno, module
            elif module == "repro":
                for alias in node.names:
                    if _is_stack(f"repro.{alias.name}"):
                        yield node.lineno, f"repro.{alias.name}"


def test_runtime_core_imports_no_stack():
    modules = sorted(RUNTIME.rglob("*.py"))
    assert modules, f"nothing found under {RUNTIME}"
    offenders = [
        f"{path.relative_to(RUNTIME.parent)}:{line} imports {module}"
        for path in modules
        for line, module in stack_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, "stack imports in repro.runtime: " + ", ".join(offenders)


def test_the_guard_sees_every_spelling():
    source = (
        "import repro.fmi.job\n"
        "from repro.mpi.runtime import MpiJob\n"
        "from repro import sched\n"
        "def f():\n"
        "    from repro.chaos import run_campaign\n"
        "import repro.net.transport\n"
        "from repro.fmirun import x\n"
    )
    assert [line for line, _m in stack_imports(ast.parse(source))] == [1, 2, 3, 5]
