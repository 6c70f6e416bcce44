"""The list-per-event ``Event``, kept as a test oracle.

These are :class:`~repro.simt.kernel.Event`, :class:`Timeout`,
:class:`BulkCompletion` and :class:`~repro.simt.process.Process` as
they stood before an event learned to keep a lone callback in its slot
(``()`` for none, the callable for one, a list for more): every event
here allocates its own ``callbacks`` list, every registration is a
``list.append`` and every detach a ``list.remove``.  The classes below
are preserved verbatim; ``test_event_oracle.py`` runs them on
``tests/kernel_reference.py``'s :class:`ReferenceSimulator`, whose loop
reads the public ``callbacks``, and the production classes on the
production :class:`~repro.simt.kernel.Simulator`, with the same random
process program, and asserts the same callback log at the same floats
and the same outcome for every process.

They define *which* callbacks an event runs, and in what order; do
not optimise them.
"""

from __future__ import annotations

from heapq import heappush
from types import GeneratorType
from typing import Any, Callable, Generator, List, Optional

from repro.simt.kernel import _INF, _PENDING, SimulationError, Simulator
from repro.simt.process import Interrupt, ProcessKilled

__all__ = ["BulkCompletion", "Event", "Process", "Timeout"]


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
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed",
                 "_cancelled", "_cancel_cb", "_seq")

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
        # a chained compare, not ``<``: NaN and inf must not reach the heap
        if not 0.0 <= delay < _INF:
            raise ValueError(f"timeout delay must be finite and >= 0: {delay}")
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
        self.callbacks.append(self._dispatch)
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
                callbacks = evt.callbacks
                evt.callbacks = None
                if callbacks is not None:
                    for cb in callbacks:
                        cb(evt)
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
        self.callbacks = None
        hook = self._cancel_cb
        if hook is not None:
            self._cancel_cb = None
            hook(self)
        return True


class Process(Event):
    """A running generator on the simulation timeline.

    The process is itself an :class:`Event`: it succeeds with the
    generator's return value, or fails with the uncaught exception.
    Other processes can therefore ``yield proc`` to join it.

    Yielding a generator hands it off (module docstring): while the
    subroutine runs, ``generator`` is the subroutine and ``_caller``
    the body that yielded it.  There is one caller slot, not a stack: a
    subroutine that yields a generator in turn fails the process with
    :class:`~repro.simt.kernel.SimulationError`.  Returning a generator
    from the body replaces ``generator`` with it (the tail hand-off).
    """

    __slots__ = ("generator", "name", "_target", "_killed", "_resume_cb",
                 "_caller")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None  # event we are waiting on
        self._killed = False
        #: the body suspended at a hand-off ``yield``, None otherwise
        self._caller: Optional[Generator] = None
        self._resume_cb = self._resume
        # Bootstrap: resume once at the current time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume_cb)
        sim._push(init, 0.0)

    # -- lifecycle ------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished or been killed."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the generator asap.

        No-op if the process already finished or was killed.
        """
        if self.triggered or self._killed:
            return
        self._detach()
        evt = Event(self.sim)
        evt._ok = False
        evt._value = Interrupt(cause)
        evt.callbacks.append(self._resume_cb)
        self.sim._push(evt, 0.0)
        self._target = evt

    def kill(self, cause: Any = None) -> None:
        """Terminate the process abruptly, never resuming the generator.

        The generator is closed (``finally`` blocks run, as in CPython
        process teardown) and the process event fails with
        :class:`ProcessKilled`.
        """
        if self.triggered or self._killed:
            return
        self._killed = True
        self._detach()
        # If nobody else is waiting on the target, withdraw it: a
        # killed process must not leave a live-looking posted receive
        # behind to swallow a message meant for a living waiter.
        tgt = self._target
        if tgt is not None and not tgt.callbacks and not tgt.triggered:
            tgt.cancel()
        self._target = None
        self._close()
        self._ok = False
        self._value = ProcessKilled(self, cause)
        self.sim._push(self, 0.0)

    def _close(self) -> None:
        """Close the generator: a handed-off subroutine first, then the
        body that yielded it -- the order ``yield from`` gives, so their
        ``finally`` blocks run in the same order."""
        caller = self._caller
        self._caller = None
        for gen in (self.generator, caller):
            if gen is not None:
                try:
                    gen.close()
                except Exception:  # pragma: no cover - user finally blocks misbehaving
                    pass
        if caller is not None:
            self.generator = caller

    def _detach(self) -> None:
        """Stop listening to the event we were waiting on."""
        tgt = self._target
        if tgt is not None and tgt.callbacks is not None:
            try:
                tgt.callbacks.remove(self._resume_cb)
            except ValueError:
                pass

    # -- the trampoline -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._killed or self._value is not _PENDING:  # killed/finished
            return
        # Single-shot resume: if some *other* event still holds our
        # callback (an interrupt raced the bootstrap init before
        # ``_target`` was ever set, leaving two registrations), drop it
        # now -- otherwise that event later resumes the generator in
        # place of whatever it is actually waiting on, permanently
        # desynchronising yield values.  On the normal path ``_target``
        # *is* ``event`` and its callback list is already detached by
        # the dispatch loop, so there is nothing to drop.
        tgt = self._target
        if tgt is not None and tgt.callbacks is not None:
            self._detach()
        self._target = None
        sim = self.sim
        gen = self.generator
        ok = event._ok
        value = event._value
        while True:
            try:
                if ok:
                    nxt = gen.send(value)
                else:
                    nxt = gen.throw(value)
            except BaseException as exc:
                # a return (generators raise StopIteration itself) or
                # an uncaught exception
                ok = exc.__class__ is StopIteration
                value = exc.value if ok else exc
                caller = self._caller
                if caller is None:
                    if ok and value.__class__ is GeneratorType:
                        # the tail hand-off: the returned generator is
                        # the body from here on
                        gen = self.generator = value
                        value = None
                        continue
                    self._ok = ok
                    self._value = value
                    sim._push(self, 0.0)
                    return
                # a handed-off subroutine ended: the outcome of the
                # caller's ``yield``
                self._caller = None
                gen = self.generator = caller
                continue
            # exact classes first: a call per wake for the subclass check
            cls = nxt.__class__
            if cls is Event or cls is Timeout or isinstance(nxt, Event):
                break
            if cls is GeneratorType and self._caller is None:
                # the hand-off: drive the subroutine from here on
                self._caller = gen
                gen = self.generator = nxt
                ok = True
                value = None
                continue
            self._ok = False
            self._value = SimulationError(
                f"process {self.name!r} yielded a generator from a "
                "handed-off one; hand-offs do not nest"
                if cls is GeneratorType else
                f"process {self.name!r} yielded {cls.__name__}, "
                "expected an Event or a generator"
            )
            sim._push(self, 0.0)
            self._close()
            return

        self._target = nxt
        if nxt._processed:
            # Already fired: resume on a fresh zero-delay event carrying
            # the same outcome so scheduling order stays heap-driven.
            relay = Event(self.sim)
            relay._ok = nxt._ok
            relay._value = nxt._value
            relay.callbacks.append(self._resume_cb)
            self.sim._push(relay, 0.0)
            self._target = relay
        else:
            nxt.callbacks.append(self._resume_cb)
