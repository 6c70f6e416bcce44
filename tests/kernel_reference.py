"""The pop-one-entry-at-a-time run loop, kept as a test oracle.

This is :class:`~repro.simt.kernel.Simulator` as it stood before the
run loop learned to drain the immediate queue a batch at a time: the
queue is a ``deque`` and every zero-delay event costs a ``popleft``.
:meth:`ReferenceSimulator.run` and :meth:`ReferenceSimulator.step` are
preserved verbatim; ``test_kernel_oracle.py`` drives this simulator and
the production one with the same random schedule and asserts the same
callbacks at the same instants in the same order, the same
``events_processed`` and the same ``peak_heap``.

It defines *which* entry the kernel dispatches next; do not optimise it.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop
from typing import Optional

from repro.simt.kernel import Event, SimulationError, Simulator

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator(Simulator):
    """A simulator whose immediate queue is a ``deque`` popped one
    entry per event."""

    def __init__(self) -> None:
        super().__init__()
        self._nowq: deque = deque()

    def step(self) -> None:
        """Process the next scheduled event (heap or immediate queue)."""
        heap = self._heap
        nowq = self._nowq
        if nowq and (not heap or heap[0][0] > self.now):
            event = nowq.popleft()
        else:
            time, _seq, event = heappop(heap)
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError(
                    "event heap corrupted: time went backwards"
                )
            self.now = time
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

        heap = self._heap
        nowq = self._nowq
        pop = heappop
        popleft = nowq.popleft
        # ``n`` counts this call's pops; ``high`` is the largest
        # ``_seq - _reserved - n`` seen just before a pop, i.e. the
        # peak depth of this call offset by the pops that preceded it.
        n = 0
        high = 0
        self._running = True
        try:
            while heap or nowq:
                if limit_event is not None and limit_event._processed:
                    break
                depth = self._seq - self._reserved - n
                if depth > high:
                    high = depth
                # Heap entries at the current instant predate the FIFO
                # (smaller seq), so they drain first; otherwise the
                # FIFO empties before the clock may advance.
                if nowq and (not heap or heap[0][0] > self.now):
                    event = popleft()
                else:
                    if limit_time is not None and heap[0][0] > limit_time:
                        self.now = limit_time
                        break
                    time, _seq, event = pop(heap)
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
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock suspected"
                    )
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
                raise SimulationError(
                    "simulation ran out of events before the awaited event fired"
                )
            if not limit_event.ok:
                raise limit_event.value
            return limit_event.value
        # If the heap drained before limit_time, the clock stays at the
        # last event time by convention.
        return None
