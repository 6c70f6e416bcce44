"""Guard: the lower layers stay stack-neutral.

``repro.runtime`` holds only what the MPI and FMI stacks both run
(``JobBase``, ``RankProcess``, ``JobAborted``, the ``FaultPolicy``
base); each stack's policy lives with the stack.  Below it,
``repro.net`` (the transport), ``repro.cluster`` (machine, fabric,
injectors) and ``repro.simt`` (the kernel) know no collective engine,
recovery family, scheduler or chaos engine either: which engine a
collective runs on is decided above them, in ``repro.mpi.macro``.
This walks every module under those packages and fails on any import
of ``repro.fmi``, ``repro.mpi``, ``repro.sched`` or ``repro.chaos``,
however it is spelled.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
NEUTRAL = ("runtime", "net", "cluster", "simt")
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


@pytest.mark.parametrize("package", NEUTRAL)
def test_lower_layer_imports_no_stack(package):
    modules = sorted((SRC / package).rglob("*.py"))
    assert modules, f"nothing found under {SRC / package}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line} imports {module}"
        for path in modules
        for line, module in stack_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, f"stack imports in repro.{package}: " + ", ".join(offenders)


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
