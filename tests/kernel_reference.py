"""The pop-one-entry-at-a-time run loop, kept as a test oracle.

This is :class:`~repro.simt.kernel.Simulator` as it stood before the
run loop learned to walk the immediate queue a batch at a time and the
heap a bucket at a time: the queue is a ``deque`` and every zero-delay
event costs a ``popleft``; every timed event is found on its own.

The heap it popped from is gone -- the production push paths now file
timed entries into per-instant buckets (``_at``), and this class pushes
through them too -- so the one thing rewritten here is the lookup, and
it does not trust the buckets' layout: each step scans every bucket for
the pending entry with the smallest ``(time, _seq)`` and removes that
entry alone.  A bucket out of ``seq`` order, an entry filed under the
wrong instant's position, or a re-push that should overtake therefore
shows as a different dispatch order.  ``_heap`` is kept equal to the
set of pending instants only so that the inherited
:meth:`~repro.simt.kernel.Simulator.peek` keeps working.

:meth:`ReferenceSimulator.run` and :meth:`ReferenceSimulator.step` are
otherwise preserved verbatim; ``test_kernel_oracle.py`` drives this
simulator and the production one with the same random schedule and
asserts the same callbacks at the same instants in the same order, the
same ``events_processed``, the same ``peak_heap`` and the same stall
reports (:meth:`_upcoming` is rewritten the same way, and ``run``
counts the events since the clock last advanced the way the
production loop does, for a tripped ``max_events``).

It defines *which* entry the kernel dispatches next; do not optimise it.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify
from typing import Optional

from repro.simt.kernel import Event, SimulationError, Simulator

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator(Simulator):
    """A simulator whose immediate queue is a ``deque`` popped one
    entry per event, and whose timed entries are found by a full scan."""

    def __init__(self) -> None:
        super().__init__()
        self._nowq: deque = deque()

    def _pending(self):
        """Every timed entry as ``(time, seq, event)``, in dispatch order."""
        return sorted(((when, event._seq, event)
                       for when, bucket in self._at.items()
                       for event in bucket), key=lambda entry: entry[:2])

    def _pop(self):
        """Remove the timed entry with the smallest ``(time, _seq)``."""
        time, _seq, event = self._pending()[0]
        bucket = self._at[time]
        del bucket[next(i for i, other in enumerate(bucket) if other is event)]
        if not bucket:
            del self._at[time]
            self._heap.remove(time)
            heapify(self._heap)
        return time, event

    def _due_now(self) -> bool:
        """True while a timed entry is due at the current instant."""
        return any(when <= self.now for when in self._at)

    def _upcoming(self, limit: int = 8):
        pending = self._pending()
        due = [event for when, _seq, event in pending if when <= self.now]
        due += self._nowq
        due += [event for when, _seq, event in pending if when > self.now]
        return due[:limit]

    def step(self) -> None:
        """Process the next scheduled event (timed or immediate queue)."""
        nowq = self._nowq
        if nowq and not self._due_now():
            event = nowq.popleft()
        elif self._at:
            time, event = self._pop()
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError(
                    "event heap corrupted: time went backwards"
                )
            self.now = time
        else:
            raise SimulationError("nothing scheduled")
        stats = self.stats  # folds in the depth just before this pop
        self._popped += 1
        stats.events_processed += 1
        event._run_callbacks()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """Run until the heap drains, ``until`` is reached, or the event
        ``until`` (if an :class:`Event` is passed) is processed.

        Returns the value of the ``until`` event when one is given.
        """
        limit_time = None
        limit_event = None
        if isinstance(until, Event):
            limit_event = until
        elif until is not None:
            limit_time = float(until)

        at = self._at
        nowq = self._nowq
        popleft = nowq.popleft
        # ``n`` counts this call's pops; ``high`` is the largest
        # ``_seq - _reserved - n`` seen just before a pop, i.e. the
        # peak depth of this call offset by the pops that preceded it.
        n = 0
        high = 0
        moved = 0  # ``n`` when the clock last advanced (stall text)
        self._running = True
        try:
            while at or nowq:
                if limit_event is not None and limit_event._processed:
                    break
                depth = self._seq - self._reserved - n
                if depth > high:
                    high = depth
                # Timed entries at the current instant predate the FIFO
                # (smaller seq), so they drain first; otherwise the
                # FIFO empties before the clock may advance.
                if nowq and not self._due_now():
                    event = popleft()
                else:
                    if limit_time is not None and min(at) > limit_time:
                        self.now = limit_time
                        break
                    time, event = self._pop()
                    if time != self.now:
                        moved = n
                    self.now = time
                n += 1
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is not None:
                    for cb in callbacks:
                        cb(event)
                if max_events is not None and n >= max_events:
                    # The budget is a livelock tripwire, not a hard
                    # stop: the awaited event completing on exactly the
                    # Nth step is success, not livelock.
                    if limit_event is not None and limit_event._processed:
                        break
                    raise SimulationError(self._stall(
                        f"exceeded max_events={max_events}; "
                        f"livelock suspected ({n - moved} of them "
                        "since the clock last advanced)"))
        finally:
            self._running = False
            stats = self._stats
            stats.events_processed += n
            peak = high - self._popped
            if peak > stats.peak_heap:
                stats.peak_heap = peak
            self._popped += n
        if limit_event is not None:
            if not limit_event.triggered:
                raise SimulationError(self._stall(
                    "simulation ran out of events before the awaited event "
                    "fired", limit_event))
            if not limit_event.ok:
                raise limit_event.value
            return limit_event.value
        # If the heap drained before limit_time, the clock stays at the
        # last event time by convention.
        return None
