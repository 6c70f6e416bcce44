"""Guard: DESIGN.md's module map (section 3) matches ``src/repro``.

The map is a fenced block of package lines (``  simt/``) each followed
by its module lines (``    kernel.py  ...``).  Every module under
``src/repro`` other than a package's ``__init__.py`` is listed once,
and every listed module exists.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
SRC = ROOT / "src" / "repro"


def mapped():
    """``package/module.py`` of every module line in the map, in order."""
    section = DESIGN.read_text(encoding="utf-8").split("\n## 3.", 1)[1]
    block = section.split("```", 2)[1]
    package = None
    for line in block.splitlines():
        match = re.match(r"  (\w+)/(\s|$)", line)
        if match:
            package = match.group(1)
            continue
        match = re.match(r"    (\w+\.py)(\s|$)", line)
        if match:
            yield f"{package}/{match.group(1)}"


def test_the_module_map_lists_every_module_once():
    listed = list(mapped())
    assert listed, "no module lines found in DESIGN.md section 3"
    twice = sorted({path for path in listed if listed.count(path) > 1})
    assert not twice, "listed twice: " + ", ".join(twice)
    actual = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py") if path.name != "__init__.py"
    }
    missing = sorted(actual - set(listed))
    assert not missing, "modules missing from DESIGN.md section 3: " + ", ".join(missing)
    stale = sorted(set(listed) - actual)
    assert not stale, "DESIGN.md section 3 lists modules that do not exist: " + ", ".join(stale)
