"""Core event loop: the virtual clock, the event heap, and ``Event``.

The kernel is intentionally small.  Everything else (processes,
resources, network links) is built from :class:`Event` and
:meth:`Simulator.schedule`.

Hot-path notes (this is the innermost loop of every simulation):

* :meth:`Simulator.run` keeps the heap, the pop function and the
  counters in locals and dispatches callbacks inline instead of going
  through :meth:`Simulator.step`, which exists for single-stepping and
  subclass instrumentation but costs a method call per event.
* **One heap entry per instant.**  Lockstep ranks land most timers on
  a pending float, so the heap holds one float per distinct time and
  ``_at`` maps it to its *bucket*, the events due then in seq order: a
  push is one ``append`` (seq is monotone) or, to a new instant, one
  ``heappush``; a bucket is one ``heappop``.  Zero-delay schedules
  (most events) skip both for a FIFO *immediate queue*.  A bucket was
  filled before the clock reached it, so it predates the whole queue:
  the bucket at ``now`` drains first, then the queue, then the clock
  advances.  :meth:`Simulator.run` walks a bucket, or a batch of the
  queue (swapped for a fresh list), with a ``for`` loop -- no pop per
  event -- clearing each slot as it dispatches it, so the walk keeps
  no processed event alive and :meth:`Simulator.peek` sees the rest in
  ``_batch``; an early stop puts the unwalked tail back in front.  The
  one out-of-order push, a pipe's reserved re-push, goes in by seq
  (:meth:`Simulator._insert`), into the live bucket too; at ``now``
  during a queue batch it opens a bucket, which the batch yields to.
* **A trigger is a store.**  A Python frame per event is the largest
  single cost left in the loop, so the hot schedules do not call
  :meth:`Simulator._push`: each carries its own copy of the push, and
  a completion is the store of ``_ok`` and ``_value`` plus that push,
  written out where it happens.  The sites: :meth:`Event.succeed` and
  :class:`Timeout` here; a matched receive, at a delivery or from the
  unexpected queue (``net.matching``); a send's completion
  (``net.transport``); the wire's head and tail timer and its landing
  (``cluster.network``); a pipe's entries, its overhead timers and a
  transfer's completion (``simt.resources``); a process's wakes
  (``simt.process``).  ``_push`` remains the general path (``fail``,
  delayed ``succeed``, ``Process``, ``BulkCompletion``), and
  ``Event.succeed`` the trigger of everything else: a copy stands in
  for it only where the event is known live (not triggered, not
  cancelled), so its checks cannot fire.
  The copies must stay *one push each, in program order*: no live
  callback moves, or which same-instant event fires first changes, and
  with it every simulated number downstream.  An entry that would
  dispatch nothing may be left out if every live one keeps its
  ``(time, seq)``: a fair-share pipe takes a sequence number for each
  new deadline but keeps one entry queued (``simt.resources``).
  ``tests/test_golden_order.py`` pins the resulting order.
* **A per-message record is its own event.**  What the messaging path
  keeps per message -- a posted receive, a send's completion, the
  wire's arrival and its timer, a transfer and its overhead timer, a
  process's wake -- is an ``Event`` subclass whose class sets
  ``__init__ = object.__init__``: building one is no Python frame (nor
  is the envelope, ``net.message``).  The one site
  that builds it fills the six slots ``Event.__init__`` would
  (``sim``, ``_callbacks``, ``_value``, ``_ok``, ``_processed``,
  ``_cancelled``), as :class:`Timeout` does;
  ``tests/test_event_records.py`` checks every such fill against a
  fresh ``Event(sim)``.  A record never refers to itself: a cycle
  would keep it alive until the collector runs.  (The wire and its
  timer form one only while the timer is armed, and its pop clears the
  callback that closes it.)  Every subclass is
  registered by ``Event.__init_subclass__``, so a process recognises
  whatever it yields with one set lookup (:data:`_EVENT_CLASSES`),
  not an ``isinstance`` call per resume.
* An event keeps its callbacks in one raw slot, ``_callbacks``, whose
  shape says how many it holds: ``()`` for none, the callable itself
  for one, a list for two or more, ``None`` once the event fired, was
  cancelled or was made inert.  Most events have exactly one waiter,
  so most allocate nothing beyond themselves, and registering that
  waiter is a store, not a ``list.append``.  The dispatch sites here
  read the shape by class (a callback may define ``__len__``, so never
  by truthiness); the hot registration sites write the slot of an event
  that is fresh or already theirs.  The public ``callbacks`` property
  stays a list: reading it turns the slot into one, in place.
* ``stats.peak_heap`` counts outstanding entries, not buckets, and is
  derived: every schedule bumps ``_seq`` and every dispatch retires
  one entry, so ``_seq - _reserved - pops`` are outstanding
  (``_reserved``: sequence numbers a pipe holds without an entry).  It
  only grows between two dispatches, so its maxima sit just before one
  (an integer compare per event) or when ``stats`` is read (folded in
  by the property) -- no ``len()`` on the push path.
* :meth:`Event.cancel` withdraws an event that will never fire so dead
  waiters (killed processes) leave no live-looking tombstones in
  whatever queue holds them.  No subclass overrides it and no queue
  hears of it: the matching engine reads a posted receive's slots and
  prunes a withdrawn one when it reaches a bucket head
  (``net.matching``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

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

_INF = float("inf")

#: dispatches :meth:`Simulator.run` makes at one instant before it calls
#: the run a livelock (a timer that re-arms at its own instant, a pipe
#: whose deadline never passes a flow's end): far above any burst a
#: simulation makes at one instant, so it only stops what would hang
STALL_DISPATCHES = 10_000_000


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

    #: ``_seq``: written by a push, read in a bucket (not by __init__)
    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_processed",
                 "_cancelled", "_seq")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        _EVENT_CLASSES.add(cls)

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: ``()``, one callable, a list of two or more, or ``None``
        #: (module docstring); :attr:`callbacks` is the list view
        self._callbacks: Any = ()
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._cancelled = False

    # -- state inspection -------------------------------------------------
    @property
    def callbacks(self) -> Optional[List[Callable[["Event"], None]]]:
        """The callbacks in registration order, as a list callers may
        append to; ``None`` once the event fired or was cancelled.
        The first read turns the slot into that list."""
        callbacks = self._callbacks
        cls = callbacks.__class__
        if cls is list or callbacks is None:
            return callbacks
        callbacks = self._callbacks = [] if cls is tuple else [callbacks]
        return callbacks

    @callbacks.setter
    def callbacks(self, value: Optional[List[Callable[["Event"], None]]]) -> None:
        self._callbacks = value

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
        dropped and later ``succeed``/``fail`` calls are silently
        ignored.
        """
        if self._value is not _PENDING or self._cancelled:
            return False
        self._cancelled = True
        self._callbacks = None
        return True

    # -- internal ------------------------------------------------------------
    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self._callbacks = self._callbacks, None
        cls = callbacks.__class__
        if cls is list:
            for cb in callbacks:
                cb(self)
        elif cls is not tuple and callbacks is not None:
            callbacks(self)

    def _what(self) -> str:
        """What this event is, in a stalled run's report (the cold path
        of :meth:`Simulator._stall`); a record names its message."""
        return type(self).__name__

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


#: every Event class, :class:`Event` and each subclass as it is
#: defined: what a process may yield, recognised with one set lookup
_EVENT_CLASSES = {Event}


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # a chained compare, not ``<``: NaN and inf must not reach the heap
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and >= 0: {delay}")
        # Event.__init__ and Simulator._push, flattened into one frame
        # (see the module docstring).
        self.sim = sim
        self._callbacks = ()
        self._value = value
        self._ok = True
        self._processed = False
        self._cancelled = False
        self.delay = delay
        self._seq = sim._seq = sim._seq + 1
        when = sim.now + delay
        if when == sim.now:
            sim._nowq.append(self)
        elif when in sim._at:
            sim._at[when].append(self)
        else:
            sim._at[when] = [self]
            heappush(sim._heap, when)


class BulkCompletion(Event):
    """One heap entry that completes a whole batch of events at once.

    The macro-event collective fast path schedules a single
    ``BulkCompletion`` where the hop-level engine would schedule
    O(n log n) per-message events: ``events[k]`` succeeds with
    ``values[k]`` *without ever touching the heap* -- their callbacks
    run inline, as :meth:`Simulator.run` runs a popped event's, in list
    order, at the bulk event's timestamp.  Cancelled or
    already-triggered entries are skipped (a waiter killed mid-flight
    must not be resumed).  Each slot of both lists is cleared the moment
    it is walked: the lists are the caller's, and a batch dispatched so
    far holds neither the events nor the values it has handed over --
    a woken rank's next operation starts while the rest are still being
    walked.

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

    __slots__ = ("_events", "_values")

    def __init__(self, sim: "Simulator", delay: float,
                 events: List[Event], values: List[Any]):
        super().__init__(sim)
        self._events = events
        self._values = values
        self._callbacks = self._dispatch
        self._ok = True
        self._value = None
        sim._push(self, delay)

    def _dispatch(self, _evt: Event) -> None:
        events, values = self._events, self._values
        self._events = self._values = ()
        done = 0
        try:
            for k, evt in enumerate(events):
                value = values[k]
                events[k] = values[k] = None
                if evt._cancelled or evt._value is not _PENDING:
                    continue
                evt._ok = True
                evt._value = value
                done += 1
                # Event._run_callbacks, inlined as in Simulator.run
                evt._processed = True
                callbacks = evt._callbacks
                evt._callbacks = None
                cls = callbacks.__class__
                if cls is list:
                    for cb in callbacks:
                        cb(evt)
                elif cls is not tuple and callbacks is not None:
                    callbacks(evt)
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
        self._events = self._values = ()
        self._callbacks = None
        return True


class SimStats:
    """Lifetime kernel counters for one :class:`Simulator`."""

    __slots__ = ("events_processed", "peak_heap")

    def __init__(self) -> None:
        #: event completions dispatched: queued entries plus batch events
        #: a :class:`BulkCompletion` completed inline
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

    The heap holds one float per pending instant and ``_at`` maps it to
    that instant's bucket, its events in ``seq`` order; ``seq`` is a
    monotonically increasing tiebreaker so same-time events fire in
    schedule order, which makes the whole simulation deterministic.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[float] = []
        self._at: Dict[float, List[Optional[Event]]] = {}
        #: zero-delay events awaiting dispatch at the current instant
        #: (FIFO == schedule order; see module docstring)
        self._nowq: List[Event] = []
        #: the bucket or queue batch :meth:`run` is walking, dispatched
        #: slots set to None; a walked bucket stays in ``_at``
        self._batch: Optional[List[Optional[Event]]] = None
        self._seq: int = 0
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
        #: the observability sink; a no-op until a Tracer attaches
        #: itself (instrumentation sites guard on ``.enabled``)
        self.tracer = NULL_TRACER
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
        # a chained compare, not ``<``: NaN and inf must not reach the heap
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule into the past or at infinity (delay={delay})")
        event._seq = self._seq = self._seq + 1
        # Zero-delay (and float-underflow) schedules take the immediate
        # queue; only entries for a *future* instant go to a bucket.
        # The underflow guard keeps the order rule: a bucket at ``now``
        # always predates the whole queue.
        when = self.now + delay
        if when == self.now:
            self._nowq.append(event)
        elif when in self._at:
            self._at[when].append(event)
        else:
            self._at[when] = [event]
            heappush(self._heap, when)

    def _insert(self, event: Event, when: float, seq: int) -> None:
        """Put ``event`` at ``(when, seq)``: the out-of-order push."""
        event._seq = seq
        bucket = self._at.setdefault(when, [])
        if not bucket:
            heappush(self._heap, when)
        i = len(bucket)
        while i and bucket[i - 1] is not None and bucket[i - 1]._seq > seq:
            i -= 1
        bucket.insert(i, event)

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

    # -- execution -------------------------------------------------------------
    def step(self) -> None:
        """Process the next scheduled event: the first of the bucket at
        ``now``, else of the immediate queue, else of the next bucket."""
        heap, nowq = self._heap, self._nowq
        if nowq and (not heap or heap[0] > self.now):
            event = nowq.pop(0)
        elif heap:
            self.now = heap[0]
            bucket = self._at[self.now]
            event = bucket.pop(0)
            if not bucket:
                del self._at[heappop(heap)]
        else:
            raise SimulationError("nothing scheduled")
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
            return self._heap[0]
        return _INF

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """Run until the heap drains, ``until`` is reached, or the event
        ``until`` (if an :class:`Event` is passed) is processed.

        Returns the value of the ``until`` event when one is given.  A
        time ``until`` before :attr:`now` (or NaN) is refused: the clock
        never runs backwards.  A stalled run says who waits on what, and
        so does one whose clock stands still for
        :data:`STALL_DISPATCHES` dispatches (checked between batches).
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
        at = self._at
        pop = heappop
        # ``n`` counts this call's dispatches; ``high`` is the largest
        # ``_seq - _reserved - n`` seen just before one, i.e. the peak
        # depth of this call offset by the dispatches that preceded it;
        # ``moved`` is ``n`` when the clock last advanced (stall text).
        n = 0
        high = 0
        moved = 0
        self._running = True
        try:
            while True:
                if limit_event is not None and limit_event._processed:
                    break
                if n - moved > STALL_DISPATCHES:
                    raise SimulationError(self._stall(
                        f"the clock stood still for {n - moved} dispatches; "
                        "livelock suspected"))
                nowq = self._nowq
                now = self.now
                # the bucket at ``now``, the queue, the next bucket
                if nowq and (not heap or heap[0] > now):
                    batch = self._batch = nowq
                    self._nowq = []
                    live = None
                elif not heap:
                    break
                else:
                    live = heap[0]
                    if limit_time is not None and live > limit_time:
                        self.now = limit_time
                        break
                    pop(heap)
                    batch = self._batch = at[live]
                    if live != now:
                        moved = n
                    self.now = now = live
                try:
                    for k, event in enumerate(batch):
                        depth = self._seq - self._reserved - n
                        if depth > high:
                            high = depth
                        batch[k] = None
                        n += 1
                        event._processed = True
                        callbacks = event._callbacks
                        event._callbacks = None
                        cls = callbacks.__class__
                        if cls is list:
                            for cb in callbacks:
                                cb(event)
                        elif cls is not tuple and callbacks is not None:
                            callbacks(event)
                        # The budget is a livelock tripwire, not a hard
                        # stop: the awaited event completing on exactly
                        # the Nth step is success, not livelock.
                        if max_events is not None and n >= max_events and not (
                                limit_event is not None and limit_event._processed):
                            raise SimulationError(self._stall(
                                f"exceeded max_events={max_events}; "
                                f"livelock suspected ({n - moved} of them "
                                "since the clock last advanced)"))
                        # a queue batch yields to a re-push due now
                        if ((limit_event is not None and limit_event._processed)
                                or (heap and heap[0] <= now)):
                            break
                finally:
                    # walked, or stopped: the rest goes back in front
                    self._batch = None
                    tail = batch[k + 1:]
                    if live is None:
                        self._nowq[:0] = tail
                    elif tail:
                        at[live] = tail
                        heappush(heap, live)
                    else:
                        del at[live]
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

    def _upcoming(self, limit: int = 8) -> List[Event]:
        """The next ``limit`` entries due, in dispatch order."""
        walked, now = self._batch or [], self.now
        due = [event for event in walked if event is not None] + self._nowq
        if self._at.get(now) is not walked:  # it precedes a queue batch
            due[:0] = self._at.get(now, ())
        for when in sorted(self._heap):
            due += self._at[when] if when > now else ()
        return due[:limit]

    def _stall(self, what: str, until: Optional[Event] = None) -> str:
        """``what``, then who waits on what (``simt.process``): the wait
        chain from the awaited ``until``, or the next entries due."""
        from repro.simt.process import wait_chain, waiters
        if until is None:
            due = "; ".join(map(waiters, self._upcoming()))
            return f"{what} at now={self.now!r}; next due: {due}"
        return (f"{what} (now={self.now!r}, events_processed="
                f"{self._stats.events_processed}); waiting: {wait_chain(until)}")
