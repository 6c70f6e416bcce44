"""The one way tests pin the collective engine or ask for its verdict.

The engine mode is process-global (``set_collective_mode``); every test
that pins it goes through :func:`pinned_engine`, so replacing the
global edits this module and no test.
"""

from contextlib import contextmanager
from types import SimpleNamespace

from repro.mpi.api import ParallelApi
from repro.mpi.collectives import set_collective_mode
from repro.mpi.macro import MacroCollectives


@contextmanager
def pinned_engine(mode):
    """Run the body under engine ``mode`` (``"hops"``, ``"macro"``, or
    ``"auto"`` / ``None``), then restore whatever was in force."""
    previous = set_collective_mode(mode)
    try:
        yield
    finally:
        set_collective_mode(previous)


def verdict(transport, recovery=ParallelApi.recovery, hop_only=0):
    """What :meth:`MacroCollectives.verdict` answers for a rank on
    ``transport`` whose API carries ``recovery`` (default: no family)
    and ``hop_only`` open ``_hop_only`` scopes."""
    api = SimpleNamespace(transport=transport, recovery=recovery,
                          _hop_only=hop_only)
    return MacroCollectives.verdict(api)
