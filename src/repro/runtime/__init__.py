"""repro.runtime -- the launch-stack core both MPI and FMI build on.

The paper's central contrast -- fail-stop MPI relaunch vs. FMI's
survivable in-place recovery (Figures 6 and 14) -- is a difference in
*fault policy*, not in launch mechanics.  Both stacks allocate nodes,
create per-rank network contexts, spawn rank processes (paying spawn +
exec-load latency), rendezvous, collect results, and tear down.  This
package holds only what both stacks run:

* :func:`~repro.runtime.core.check_geometry` -- the one geometry rule
  (ranks >= 1, ppn >= 1, ranks a multiple of ppn) every entry point of
  either stack applies at construction.
* :class:`~repro.runtime.core.JobBase` -- allocation geometry, the
  rank -> address context table, result collection, abort/teardown.
* :class:`~repro.runtime.core.RankProcess` -- one rank's lifecycle:
  context creation, boot latency, exit-callback dispatch.
* :class:`~repro.runtime.core.FaultPolicy` -- the seam.  Each stack
  brings its own policy and builds its own rank processes:
  :class:`~repro.mpi.runtime.FailStop` kills the whole job on any rank
  death (MPI semantics); :class:`~repro.fmi.runtime.Fmirun` replaces
  lost nodes in place (spare pool, recovery-epoch bump, the paper's
  fmirun master).

Nothing here imports :mod:`repro.fmi`, :mod:`repro.mpi`,
:mod:`repro.sched` or :mod:`repro.chaos`
(``tests/test_runtime_layering.py`` holds that).
"""

from repro.runtime.core import (
    FaultPolicy,
    JobAborted,
    JobBase,
    RankProcess,
    check_geometry,
)

__all__ = [
    "FaultPolicy",
    "JobAborted",
    "JobBase",
    "RankProcess",
    "check_geometry",
]
