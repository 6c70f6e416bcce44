"""Guard: a CHANGES.md entry is short enough to read.

Each entry is one line starting ``PR <n>:``.  Every entry numbered
``FIRST_BOUNDED`` or later is at most 1,500 characters: what changed,
the claimed metric, declared deviations; the numbers live in the
committed benchmark records.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
LIMIT = 1500
FIRST_BOUNDED = 1


def entries():
    """``(pr number, text)`` of every entry in CHANGES.md."""
    for line in CHANGES.read_text(encoding="utf-8").splitlines():
        match = re.match(r"PR (\d+):", line)
        if match:
            yield int(match.group(1)), line


def test_changelog_entries_are_bounded():
    bounded = [(n, len(text)) for n, text in entries() if n >= FIRST_BOUNDED]
    assert bounded, "no bounded entries found"
    too_long = [f"PR {n}: {size} chars" for n, size in bounded if size > LIMIT]
    assert not too_long, f"entries over {LIMIT} characters: " + ", ".join(too_long)
