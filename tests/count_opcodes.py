"""Count the bytecode one ``--tiny`` pass of a perf workload executes.

``host_calls_m`` counts Python frames; a change can move work out of
frames and into bytecode, so a call claim quotes this count beside it.
The pass is the workload's segments from ``benchmarks/perf/workloads.py``
at tiny size and seed 14, the benchmark's: built untraced, then every
``go()`` run under :func:`trace`.  The count is exact and deterministic
(it does not move with ``PYTHONHASHSEED``); it is Python bytecode only,
so a C call -- a ``heappush``, a NumPy XOR -- is one opcode however long
it runs.  Standard library only, and not a test module, so pytest does
not collect it.

Run:  python tests/count_opcodes.py himeno_cr
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 14
TOP = 15


def trace(call):
    """``(opcodes, entries)`` by code object while ``call()`` runs: a
    ``sys.settrace`` hook turns on ``f_trace_opcodes`` in each frame it
    enters (a generator's resume is an entry too) and counts its
    ``"opcode"`` events."""
    opcodes: Counter = Counter()
    entries: Counter = Counter()

    def opcode(frame, event, _arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return opcode

    def enter(frame, _event, _arg):
        entries[frame.f_code] += 1
        frame.f_trace_opcodes = True
        return opcode

    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(None)
    return opcodes, entries


def count(workload: str) -> Counter:
    """Executed opcodes of one tiny pass of ``workload``, by code object."""
    sys.path[:0] = [str(ROOT / "benchmarks" / "perf"), str(ROOT / "src")]
    from workloads import SEGMENTS

    gos = [segment() for segment in SEGMENTS[workload](SEED, True)]

    def run():
        for go in gos:
            go()

    return trace(run)[0]


def _where(code) -> str:
    path = Path(code.co_filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        pass
    return f"{path}:{code.co_firstlineno}({code.co_name})"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.rsplit("\n\n", 1)[-1].strip(), file=sys.stderr)
        return 2
    workload, = argv
    counts = count(workload)
    total = sum(counts.values())
    print(f"{workload} (tiny, seed {SEED}): {total:,} opcodes executed")
    for code, n in counts.most_common(TOP):
        print(f"{n:>12,}  {100 * n / total:5.1f} %  {_where(code)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
