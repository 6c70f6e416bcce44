"""Guard: every attribute the library stores is read somewhere.

A field that is written and never read is state nobody needs: it costs
a store on its path and a line to keep right, and answers no question.
This walks every module under ``src/repro`` for attribute stores
(``x.a = ...``, ``x.a += ...``, and each field declared in a
``@dataclass`` or ``NamedTuple`` body, which its constructor fills) and
fails on any name that nothing under ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` reads.  A read is an attribute load
(``x.a``) or the name as a string constant (``getattr(x, "a")``)
outside a ``__slots__`` declaration.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
READERS = ("src", "tests", "benchmarks", "examples")


def _name(node: ast.AST) -> str:
    """The bare name of a decorator, base or annotation: ``dataclass``
    for ``dataclasses.dataclass`` and ``dataclass(frozen=True)`` alike,
    ``ClassVar`` for ``ClassVar[int]``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", "")


def _is_record(cls: ast.ClassDef) -> bool:
    """A class whose annotated body names are constructor-filled fields."""
    return (any(_name(d) == "dataclass" for d in cls.decorator_list)
            or any(_name(b) == "NamedTuple" for b in cls.bases))


def stores(tree: ast.AST):
    """``(name, line)`` of every attribute store in ``tree``, counting
    each field a dataclass or NamedTuple body declares as one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and _name(stmt.annotation) != "ClassVar"):
                    yield stmt.target.id, stmt.lineno


def _slot_names(tree: ast.AST):
    """Every node inside a ``__slots__ = ...`` value."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            yield from ast.walk(node.value)


def reads(tree: ast.AST):
    """Every attribute name ``tree`` loads, or spells as a string."""
    slots = set(map(id, _slot_names(tree)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in slots):
            yield node.value


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unread_stores(root: Path = ROOT):
    """``{name: [path:line, ...]}`` of the stores under ``root/src/repro``
    that nothing under ``root``'s reader directories reads."""
    read = set()
    for folder in READERS:
        for path in sorted((root / folder).rglob("*.py")):
            read.update(reads(parse(path)))
    unread = {}
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        for name, lineno in stores(parse(path)):
            if name not in read:
                where = f"{path.relative_to(root)}:{lineno}"
                unread.setdefault(name, []).append(where)
    return unread


def test_every_stored_attribute_is_read():
    assert sorted(SRC.rglob("*.py")), f"nothing found under {SRC}"
    unread = unread_stores()
    assert not unread, "attributes stored and never read: " + ", ".join(
        f"{name} ({', '.join(sites)})" for name, sites in sorted(unread.items()))


def test_the_guard_tells_a_read_from_a_store():
    source = (
        "class A:\n"
        "    __slots__ = ('slotted', 'spelled')\n"
        "    def f(self, other):\n"
        "        self.slotted = 1\n"
        "        self.loaded = 2\n"
        "        other.bumped += 1\n"
        "        self.spelled = 3\n"
        "        return self.loaded, getattr(self, 'spelled')\n"
    )
    tree = ast.parse(source)
    written = sorted(name for name, _line in stores(tree))
    assert written == ["bumped", "loaded", "slotted", "spelled"]
    assert sorted(set(written) - set(reads(tree))) == ["bumped", "slotted"]
    # A record's declared fields are stores its constructor fills; a
    # ClassVar and a plain class's annotation are not.
    source = (
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    kept: int\n"
        "    filled: int = 0\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "class N(typing.NamedTuple):\n"
        "    named: str\n"
        "class Plain:\n"
        "    annotated: int = 0\n"
        "def f(d):\n"
        "    return d.kept\n"
    )
    tree = ast.parse(source)
    written = sorted(name for name, _line in stores(tree))
    assert written == ["filled", "kept", "named"]
    assert sorted(set(written) - set(reads(tree))) == ["filled", "named"]
