"""Guard: the library never reads the process environment.

Which engine runs is decided from what the library observes
(``MacroCollectives.verdict``, whose docstring holds the priority
order) plus the one explicit override
``set_collective_mode``; environment parsing belongs to
``benchmarks/_harness.py`` and the CLIs' ``argparse``.  This walks
every module under ``src/repro`` and fails on any ``os.environ`` /
``os.getenv`` reference, however it was imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def env_references(tree: ast.AST):
    """Line numbers of ``os.<env name>`` and ``from os import <env name>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENV_NAMES for alias in node.names):
                yield node.lineno


def test_library_code_never_reads_the_environment():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"nothing found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{lineno}"
        for path in modules
        for lineno in env_references(ast.parse(path.read_text(), str(path)))
    ]
    assert not offenders, "process-env reads in library code: " + ", ".join(offenders)


def test_the_guard_sees_every_spelling():
    source = (
        "import os\n"
        "import os as _os\n"
        "from os import environ\n"
        "a = os.environ.get('X')\n"
        "b = _os.getenv('X')\n"
        "c = environ['X']\n"
    )
    assert sorted(env_references(ast.parse(source))) == [3, 4, 5]
