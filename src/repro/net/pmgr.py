"""PMGR-style bootstrap rendezvous.

PMGR_COLLECTIVE gives an MPI launcher a scalable TCP tree for
bootstrapping: every process checks in, endpoint information is
allgathered, and everyone proceeds together.  We model it as a
rendezvous barrier whose cost (charged once the last participant
arrives) follows the calibrated sqrt(n) bootstrap model in
:class:`~repro.cluster.spec.ClusterSpec` -- the quantity Fig 14 plots.

The same rendezvous implements the H1 synchronising state during
recovery: survivors arrive early and *block* until replacement
processes check in (the paper's "Non-failed processes block in
FMI_Loop until the new processes are bootstrapped").

**One event per rendezvous.**  Every arrival is handed the same
event, and the release succeeds it once: its n waiters resume inside
one dispatch, in the order they registered.  That is the
``(time, order)`` n contiguous queue entries gave every live waiter,
and a rank's resume opens no bucket at the current instant, so no
other entry can run between two of them.  A waiter that dies leaves
the event (``Process.kill``); when the last one registered so far has
died the kill withdraws it, and the next arrival is handed a fresh
one.  The one thing n entries allowed that one does not: a waiter's
resume that kills or interrupts a later co-waiter, whose resume is
then already under way.  No rank does -- kills and notices come from
fault injectors and fmirun's exit callbacks, entries of their own.
``tests/pmgr_reference.py`` keeps the event-per-arrival rendezvous
this replaced, and ``tests/test_pmgr_oracle.py`` holds the two to the
same schedule.
"""

from __future__ import annotations

from typing import Optional

from repro.simt.kernel import Event, Simulator

__all__ = ["PmgrRendezvous"]


class PmgrRendezvous:
    """A one-shot all-arrive barrier with an exchange cost.

    ``arrive()`` returns the rendezvous's event; once ``size``
    participants have arrived, the exchange runs for ``cost`` seconds
    and then the event fires, resuming every participant at once.
    """

    def __init__(self, sim: Simulator, size: int, cost: float):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.sim = sim
        self.size = size
        self.cost = cost
        self._arrived = 0
        self._event = Event(sim)
        #: time the last participant checked in (None until complete)
        self.complete_at: Optional[float] = None
        #: time participants were released (None until released)
        self.released_at: Optional[float] = None

    def arrive(self) -> Event:
        """Check in; the event fires when everyone has and the
        endpoint exchange has completed."""
        if self.released_at is not None:
            raise RuntimeError("rendezvous already released (one-shot)")
        arrived = self._arrived = self._arrived + 1
        if arrived > self.size:
            raise RuntimeError(
                f"rendezvous overfull: {arrived} > size {self.size}")
        if self._event._cancelled:  # every waiter so far was killed
            self._event = Event(self.sim)
        if arrived == self.size:
            self.complete_at = self.sim.now
            self.sim.timeout(self.cost)._callbacks = self._release
        return self._event

    def withdraw(self) -> None:
        """Withdraw the event ahead of killing every waiter (a fail-stop
        abort): one by one, n kills would take n waiters out of the
        front of its callback list, O(n^2) at 16k ranks."""
        self._event.cancel()

    def _release(self, _evt: Event) -> None:
        self.released_at = self.sim.now
        self._event.succeed(None)  # a withdrawn event: a no-op
