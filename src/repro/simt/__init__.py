"""repro.simt -- a deterministic discrete-event simulation (DES) kernel.

This package is the bottom-most substrate of the FMI reproduction.  All
"hardware" (nodes, links, filesystems) and all "processes" (MPI ranks,
FMI ranks, ``fmirun`` daemons) are simulated on top of it.

The design follows the classic event/process DES style (SimPy-like):

* :class:`~repro.simt.kernel.Simulator` owns the virtual clock and the
  event heap.
* :class:`~repro.simt.kernel.Event` is a one-shot occurrence that can
  *succeed* with a value or *fail* with an exception; callbacks fire
  when the event is processed.
* :class:`~repro.simt.process.Process` wraps a generator.  The
  generator ``yield``\\ s events; the process resumes when a yielded
  event fires.  Processes can be *interrupted* (an
  :class:`~repro.simt.process.Interrupt` is thrown into the generator)
  or *killed* (abrupt termination -- this is how node crashes are
  modelled: a dead process is never resumed).
* :mod:`~repro.simt.resources` provides the fair-share
  :class:`~repro.simt.resources.BandwidthResource` used to model NICs,
  memory buses and filesystem streams.

Determinism: given the same seed(s) from :mod:`~repro.simt.rng`, a
simulation is bit-for-bit reproducible; there is no wall-clock input
anywhere in the kernel.
"""

from repro.simt.kernel import BulkCompletion, Event, SimStats, Simulator, Timeout
from repro.simt.process import Interrupt, Process, ProcessKilled
from repro.simt.primitives import AllOf
from repro.simt.resources import BandwidthResource
from repro.simt.rng import RngRegistry

__all__ = [
    "AllOf",
    "BandwidthResource",
    "BulkCompletion",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "RngRegistry",
    "SimStats",
    "Simulator",
    "Timeout",
]
