"""Core event loop: the virtual clock, the event heap, and ``Event``.

The kernel is intentionally small.  Everything else (processes,
resources, network links) is built from :class:`Event` and
:meth:`Simulator.schedule`.

Hot-path notes (this is the innermost loop of every simulation):

* :meth:`Simulator.run` keeps the heap, the pop function and the
  counters in locals and dispatches callbacks inline instead of going
  through :meth:`Simulator.step`, which exists for single-stepping and
  subclass instrumentation but costs a method call per event.
* Zero-delay schedules (event completions, process resumes -- the
  majority of all events) bypass the heap entirely and go to a FIFO
  *immediate queue*, a plain list.  Order is unchanged: an entry
  already in the heap for the current instant was necessarily
  scheduled earlier (smaller seq) than anything in the immediate
  queue, so draining "heap entries at ``now`` first, then the FIFO"
  reproduces exact seq order while the common case pays O(1) instead
  of O(log heap).  At 16k simulated ranks the heap otherwise holds
  tens of thousands of entries and the per-event heap traffic
  dominates the loop.  :meth:`Simulator.run` drains the queue a
  *batch* at a time: it swaps in a fresh list and walks the old one
  with a ``for`` loop, so a zero-delay event costs no pop call, and
  what the batch's callbacks schedule lands behind it in the new list.
  After each entry the walk yields to a heap entry due at ``now`` (the
  pipe's reserved re-push, whose seq predates the whole queue), and on
  any early exit the unwalked tail goes back in front of the new
  queue.  Each slot is cleared as it is dispatched, so the batch keeps
  no processed event alive; :meth:`Simulator.peek` sees the rest of a
  batch in ``_batch``.
* :meth:`Event.succeed` and :class:`Timeout` -- together nearly every
  schedule of a run -- carry their own copy of the push instead of
  calling :meth:`Simulator._push`: a Python frame per event is the
  largest single cost left in the loop.  ``_push`` remains the general
  path (``fail``, delayed ``succeed``, ``Process``, ``BulkCompletion``).
  The copies must stay *one push each, in program order*: the rule is
  that no live callback moves, and a change that fuses, batches or
  reorders schedules which *have* a callback changes which
  same-instant event fires first, and with it every simulated number
  downstream.  An entry that would dispatch nothing may be left out if
  every live one keeps its ``(time, seq)``: a fair-share pipe takes a
  sequence number for each new deadline but keeps one entry on the heap
  (``simt.resources``).  ``tests/test_golden_order.py`` pins the
  resulting order across commits.
* Every event allocates its own ``callbacks`` list: recycling them
  through a free pool costs four C calls per event to save one ``[]``.
* ``stats.peak_heap`` is derived, not counted: every schedule bumps
  ``_seq`` and every dispatch pops exactly one entry, so the number
  outstanding is ``_seq - _reserved - pops`` (``_reserved``: sequence
  numbers a pipe holds without an entry).  It only grows between two
  pops, so its maxima sit immediately before a pop (one integer
  compare per loop iteration) or at the moment ``stats`` is read
  (folded in by the property) -- no ``len()`` on the push path.
* :meth:`Event.cancel` withdraws an event that will never fire so dead
  waiters (killed processes) leave no live-looking tombstones in
  whatever queue holds them; the matching engine keys its lazy sweeps
  off the cancellation hook.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Iterable, List, Optional

from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "BulkCompletion",
    "Event",
    "Simulator",
    "SimStats",
    "Timeout",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, running a dead sim...)."""


#: Sentinel for "event has not produced a value yet".
_PENDING = object()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` puts it on the event heap at the current simulation
    time (optionally after ``delay``); when the simulator pops it, the
    event becomes *processed* and its callbacks run in registration
    order.

    Callbacks receive the event itself and can inspect :attr:`ok` and
    :attr:`value`.

    :meth:`cancel` is the third exit: an untriggered event whose waiter
    is gone can be withdrawn.  A cancelled event never runs callbacks,
    and later ``succeed``/``fail`` calls become no-ops (the in-flight
    completion of an operation whose waiter died must not crash).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed",
                 "_cancelled", "_cancel_cb")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._cancelled = False
        #: single hook invoked (synchronously) on cancellation; used by
        #: queue owners (the matching engine) to sweep dead entries
        self._cancel_cb: Optional[Callable[["Event"], None]] = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) on the heap."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` withdrew the event."""
        return self._cancelled

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._cancelled:
            return self
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        if delay == 0.0:  # Simulator._push's immediate branch, inlined
            sim._seq += 1
            sim._nowq.append(self)
        else:
            sim._push(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes see ``exc`` raised."""
        if self._cancelled:
            return self
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exc
        self.sim._push(self, delay)
        return self

    def cancel(self) -> bool:
        """Withdraw an untriggered event; returns True if it took effect.

        After a successful cancel the event never fires: callbacks are
        dropped, later ``succeed``/``fail`` calls are silently ignored,
        and any registered cancellation hook runs immediately so the
        structure holding the waiter can unlink it.
        """
        if self._value is not _PENDING or self._cancelled:
            return False
        self._cancelled = True
        self.callbacks = None
        hook = self._cancel_cb
        if hook is not None:
            self._cancel_cb = None
            hook(self)
        return True

    # -- internal ------------------------------------------------------------
    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks is not None:
            for cb in callbacks:
                cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self._processed
            else "cancelled"
            if self._cancelled
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # ``not >=`` rather than ``<``: NaN must not reach the heap.
        if not delay >= 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ and Simulator._push, flattened into one frame
        # (see the module docstring).
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._cancelled = False
        self._cancel_cb = None
        self.delay = delay
        seq = sim._seq = sim._seq + 1
        when = sim.now + delay
        if when == sim.now:
            sim._nowq.append(self)
        else:
            heappush(sim._heap, (when, seq, self))


class BulkCompletion(Event):
    """One heap entry that completes a whole batch of events at once.

    The macro-event collective fast path schedules a single
    ``BulkCompletion`` where the hop-level engine would schedule
    O(n log n) per-message events: ``batch`` is any iterable of
    ``(event, value)`` pairs -- consumed once, when the bulk event
    fires, so a lazy ``zip`` need never become 16k tuples -- and every
    batch event then succeeds with its value *without ever touching
    the heap*: their callbacks run inline, in batch order, at the bulk
    event's timestamp.  Cancelled or already-triggered batch entries
    are skipped (a waiter killed mid-flight must not be resumed).

    Dispatch happens through an ordinary callback so it works under
    both :meth:`Simulator.step` and the inlined :meth:`Simulator.run`
    fast loop.  Cancelling the bulk event drops the entire batch.

    Each batch event dispatched inline counts toward
    ``stats.events_processed``: they are real event completions whose
    heap traffic the bulk event absorbed, and counting them keeps the
    events/s throughput metric comparable between the macro and
    hop-level collective engines.  Like a popped event, each is counted
    before its callbacks run: a callback that raises out of the batch
    leaves the events completed so far, its own included, counted.
    """

    __slots__ = ("_batch",)

    def __init__(self, sim: "Simulator", delay: float,
                 batch: Iterable[tuple]):
        super().__init__(sim)
        self._batch = batch
        self.callbacks.append(self._dispatch)
        self._ok = True
        self._value = None
        sim._push(self, delay)

    def _dispatch(self, _evt: Event) -> None:
        done = 0
        try:
            for evt, value in self._batch:
                if evt._cancelled or evt._value is not _PENDING:
                    continue
                evt._ok = True
                evt._value = value
                done += 1
                evt._run_callbacks()
        finally:
            self.sim._stats.events_processed += done

    def cancel(self) -> bool:
        """Withdraw a *scheduled* bulk completion (recovery reset).

        Unlike the base class (which refuses triggered events -- a
        bulk completion is triggered at birth, like a Timeout), this
        leaves the heap entry in place but makes it inert: callbacks
        and batch are dropped, so the pop dispatches nothing.
        """
        if self._processed or self._cancelled:
            return False
        self._cancelled = True
        self._batch = ()
        self.callbacks = None
        hook = self._cancel_cb
        if hook is not None:
            self._cancel_cb = None
            hook(self)
        return True


class SimStats:
    """Lifetime kernel counters for one :class:`Simulator`."""

    __slots__ = ("events_processed", "peak_heap")

    def __init__(self) -> None:
        #: event completions dispatched: heap pops plus batch events a
        #: :class:`BulkCompletion` completed inline
        self.events_processed = 0
        #: largest number of scheduled events ever outstanding at once
        self.peak_heap = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimStats events={self.events_processed} "
            f"peak_heap={self.peak_heap}>"
        )


class Simulator:
    """The discrete-event simulator: virtual clock plus event heap.

    Heap entries are ``(time, seq, event)``; ``seq`` is a monotonically
    increasing tiebreaker so same-time events fire in schedule order,
    which makes the whole simulation deterministic.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Any] = []
        #: zero-delay events awaiting dispatch at the current instant
        #: (FIFO == schedule order; see module docstring)
        self._nowq: List[Event] = []
        #: the immediate queue :meth:`run` is walking, dispatched
        #: slots set to None; the rest of it precedes ``_nowq``
        self._batch: Optional[List[Optional[Event]]] = None
        self._seq: int = 0
        self._active_proc = None  # set by Process while resuming
        #: sequence numbers taken without a push: a fair-share pipe
        #: reserves its deadline's place in the order and pushes only
        #: the entry that has to exist (``simt.resources``)
        self._reserved: int = 0
        #: entries dispatched so far; ``_seq - _reserved - _popped``
        #: are outstanding
        self._popped: int = 0
        #: True inside :meth:`run`, whose pop count lives in a local
        self._running = False
        self._stats = SimStats()
        #: observability sinks; no-ops until a Tracer / MetricsRegistry
        #: attaches itself (instrumentation sites guard on ``.enabled``)
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        #: failure injectors currently armed against this simulation
        #: (maintained by ``cluster.failures``); the macro-event
        #: eligibility check reads it -- a fault may land in any window
        #: while an injector is live, so per-hop fidelity stays on.
        self.fault_injectors = 0

    @property
    def stats(self) -> SimStats:
        """Lifetime counters (``peak_heap`` is brought up to date here)."""
        stats = self._stats
        # Inside run() the pops are in a local, so the depth cannot be
        # formed; run() folds its own maximum in when it returns.
        if not self._running:
            depth = self._seq - self._reserved - self._popped
            if depth > stats.peak_heap:
                stats.peak_heap = depth
        return stats

    # -- scheduling ----------------------------------------------------------
    def _push(self, event: Event, delay: float = 0.0) -> None:
        # ``not >=`` rather than ``<``: NaN must not reach the heap.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq = self._seq + 1
        # Zero-delay (and float-underflow) schedules take the O(1)
        # immediate queue; only entries for a *future* instant pay for
        # the heap.  The underflow guard keeps the ordering invariant:
        # a heap entry at time == now always predates the whole FIFO.
        when = self.now + delay
        if when == self.now:
            self._nowq.append(event)
        else:
            heappush(self._heap, (when, seq, event))

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def spawn(self, generator, name: str = "") -> "Process":
        """Start a new process running ``generator`` (see ``process.py``)."""
        from repro.simt.process import Process

        return Process(self, generator, name=name)

    @property
    def active_process(self):
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- execution -------------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event (heap or immediate queue)."""
        heap = self._heap
        nowq = self._nowq
        if nowq and (not heap or heap[0][0] > self.now):
            event = nowq.pop(0)
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

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if nothing is scheduled."""
        batch = self._batch
        # slots are cleared in order: the last one goes last
        if self._nowq or (batch is not None and batch[-1] is not None):
            return self.now
        if self._heap:
            return self._heap[0][0]
        return float("inf")

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """Run until the heap drains, ``until`` is reached, or the event
        ``until`` (if an :class:`Event` is passed) is processed.

        Returns the value of the ``until`` event when one is given.  A
        time ``until`` before :attr:`now` (or NaN) is refused: the clock
        never runs backwards.
        """
        limit_time = None
        limit_event = None
        if isinstance(until, Event):
            limit_event = until
        elif until is not None:
            limit_time = float(until)
            # ``not >=`` rather than ``<``: NaN must be refused too.
            if not limit_time >= self.now:
                raise SimulationError(
                    f"cannot run until {limit_time!r}: "
                    f"the clock is already at {self.now!r}"
                )

        heap = self._heap
        pop = heappop
        # ``n`` counts this call's pops; ``high`` is the largest
        # ``_seq - _reserved - n`` seen just before a pop, i.e. the
        # peak depth of this call offset by the pops that preceded it.
        n = 0
        high = 0
        # the batch being walked, and the index of its current entry
        batch = None
        k = 0
        self._running = True
        try:
            while True:
                if limit_event is not None and limit_event._processed:
                    break
                nowq = self._nowq
                now = self.now
                # Heap entries at the current instant predate the FIFO
                # (smaller seq), so they drain first; otherwise the
                # FIFO empties before the clock may advance.
                if nowq and (not heap or heap[0][0] > now):
                    batch = self._batch = nowq
                    self._nowq = []
                    for k, event in enumerate(batch):
                        depth = self._seq - self._reserved - n
                        if depth > high:
                            high = depth
                        batch[k] = None
                        n += 1
                        event._processed = True
                        callbacks = event.callbacks
                        event.callbacks = None
                        if callbacks is not None:
                            for cb in callbacks:
                                cb(event)
                        if max_events is not None and n >= max_events and not (
                                limit_event is not None and limit_event._processed):
                            raise SimulationError(
                                f"exceeded max_events={max_events}; "
                                "livelock suspected"
                            )
                        if ((limit_event is not None and limit_event._processed)
                                or (heap and heap[0][0] <= now)):
                            self._nowq[:0] = batch[k + 1:]
                            break
                    batch = self._batch = None
                    continue
                if not heap:
                    break
                if limit_time is not None and heap[0][0] > limit_time:
                    self.now = limit_time
                    break
                depth = self._seq - self._reserved - n
                if depth > high:
                    high = depth
                time, _seq, event = pop(heap)
                self.now = time
                n += 1
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = None
                if callbacks is not None:
                    for cb in callbacks:
                        cb(event)
                # The budget is a livelock tripwire, not a hard stop:
                # the awaited event completing on exactly the Nth step
                # is success, not livelock.
                if max_events is not None and n >= max_events and not (
                        limit_event is not None and limit_event._processed):
                    raise SimulationError(
                        f"exceeded max_events={max_events}; livelock suspected"
                    )
        finally:
            if batch is not None:
                # A callback raised, or the budget tripped, mid-batch:
                # the unwalked tail goes back in front, in order.
                self._nowq[:0] = batch[k + 1:]
                self._batch = None
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
