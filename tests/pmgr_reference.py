"""The event-per-arrival PMGR rendezvous, kept as a test oracle.

This is :class:`~repro.net.pmgr.PmgrRendezvous` as it stood before the
rendezvous handed every arrival one shared event: here each arrival
builds an :class:`~repro.simt.kernel.Event` of its own, the release
succeeds every live one, and the n waiters resume from n contiguous
entries of the immediate queue.  ``test_pmgr_oracle.py`` runs the same
arrivals, kills and interrupts against both and asserts the same
dispatch schedule, the same ``complete_at`` / ``released_at`` and the
same set of resumed processes.

It defines *when* and *in which order* a rendezvous releases its
waiters; do not optimise it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.simt.kernel import _PENDING, Event, Simulator

__all__ = ["PmgrRendezvous"]


class PmgrRendezvous:
    """A one-shot all-arrive barrier with an exchange cost.

    ``arrive()`` returns an event; once ``size`` participants have
    arrived, the exchange runs for ``cost`` seconds and then every
    participant's event fires simultaneously.
    """

    def __init__(self, sim: Simulator, size: int, cost: float):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.sim = sim
        self.size = size
        self.cost = cost
        self._arrived: List[Event] = []
        #: time the last participant checked in (None until complete)
        self.complete_at: Optional[float] = None
        #: time participants were released (None until released)
        self.released_at: Optional[float] = None

    def arrive(self) -> Event:
        """Check in; the event fires when everyone has and the
        endpoint exchange has completed."""
        if self.released_at is not None:
            raise RuntimeError("rendezvous already released (one-shot)")
        evt = Event(self.sim)
        self._arrived.append(evt)
        if len(self._arrived) > self.size:
            raise RuntimeError(
                f"rendezvous overfull: {len(self._arrived)} > size {self.size}"
            )
        if len(self._arrived) == self.size:
            self.complete_at = self.sim.now
            exchange = self.sim.timeout(self.cost)
            exchange._callbacks = self._release
        return evt

    def _release(self, _evt: Event) -> None:
        self.released_at = self.sim.now
        # drop the fired events with the list: a job-long rendezvous
        # would otherwise hold one per rank for the whole run
        arrived, self._arrived = self._arrived, []
        for evt in arrived:
            if evt._callbacks is not None and evt._value is _PENDING:
                evt.succeed(None)
