"""repro.fmi -- the Fault Tolerant Messaging Interface (the paper's
contribution).

Public surface:

* :class:`~repro.fmi.job.FmiJob` -- launch an FMI application on a
  simulated machine and run it *through* failures.
* :class:`~repro.fmi.api.FmiContext` -- the per-rank handle an
  application generator receives: MPI-like messaging plus
  :meth:`~repro.fmi.api.FmiContext.loop` (``FMI_Loop``).
* :class:`~repro.fmi.config.FmiConfig` -- knobs: XOR group size,
  checkpoint interval or MTBF-driven auto-tuning, log-ring base k.
* :mod:`~repro.fmi.checkpoint` -- the in-memory XOR checkpoint engine.
* :mod:`~repro.fmi.detector` -- the log-ring failure detector.
* :mod:`~repro.fmi.runtime` -- the Figure 6 hierarchy:
  :class:`~repro.fmi.runtime.Fmirun` (the master and the job's fault
  policy), ``FmirunTask`` per node, ``FmiProcess`` per rank, and
  :class:`~repro.fmi.runtime.RecoveryFamily`, the one seam every
  recovery family implements (the base class is the default global
  rollback).
* :mod:`~repro.fmi.msglog` / :mod:`~repro.fmi.replication` -- the
  recovery families behind ``FmiConfig(recovery="logged")`` (partial
  rollback from sender payload logs) and ``"replicated"`` (failover to
  a live copy), both built on the channel layer of
  :mod:`~repro.fmi.channel`.

A minimal FMI application::

    def app(fmi):
        u = np.zeros(1000)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= NUM_LOOPS:
                break
            ...compute on u, exchange halos via fmi.send/recv...
        yield from fmi.finalize()
"""

from repro.fmi.config import FmiConfig
from repro.fmi.errors import FailureNotified, FmiAbort, UnrecoverableFailure
from repro.fmi.payload import Payload


def __getattr__(name):
    # FmiContext/FmiJob are exported lazily (PEP 562): they pull in
    # repro.mpi.api, which itself imports repro.fmi.payload -- eager
    # imports here would make the package order-sensitive.
    if name == "FmiContext":
        from repro.fmi.api import FmiContext

        return FmiContext
    if name == "FmiJob":
        from repro.fmi.job import FmiJob

        return FmiJob
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FailureNotified",
    "FmiAbort",
    "FmiConfig",
    "FmiContext",
    "FmiJob",
    "Payload",
    "UnrecoverableFailure",
]
