"""Structured tracing for the simulated runtime.

A :class:`Tracer` attaches to a :class:`~repro.simt.kernel.Simulator`
and records typed :class:`TraceEvent` records stamped with sim-time,
rank, node, incarnation and recovery epoch.  Instrumentation sites
throughout the stack (transport, overlay detector, FMI runtime,
checkpoint engine, failure injectors) emit events through
``sim.tracer``; by default that is :data:`NULL_TRACER`, whose methods
are no-ops, and every hot call site additionally guards on
``tracer.enabled`` so a disabled simulation pays only an attribute
lookup and a branch.

Two event shapes cover everything the paper measures:

* **instant** (``ph="i"``) -- a point occurrence: a message's fate
  (its one record, :mod:`repro.net.transport`), a failure injected, a
  notification arriving, a state transition.
* **complete** (``ph="X"``) -- a span with a duration: a checkpoint
  phase, a restore, a recovery window.  The instrumented code records
  the start time itself and calls :meth:`Tracer.complete` at the end,
  so no begin/end matching is ever needed.

Events serialise deterministically (see :mod:`repro.obs.export`):
replaying the same seeded scenario produces byte-identical traces.

This module imports nothing from the rest of ``repro`` -- the kernel
imports it, so it must stay at the bottom of the dependency graph.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "TraceReader", "NullTracer", "NULL_TRACER"]

#: Instant and complete phase markers (Chrome trace_event vocabulary).
PH_INSTANT = "i"
PH_COMPLETE = "X"

#: Event categories used by the built-in instrumentation.
CAT_NET = "net"
CAT_OVERLAY = "overlay"
CAT_CKPT = "ckpt"
CAT_STATE = "state"
CAT_FAILURE = "failure"
CAT_RECOVERY = "recovery"


class TraceEvent:
    """One typed trace record.

    ``ts`` (and for spans ``dur``) are simulated seconds.  ``rank``,
    ``node``, ``incarnation`` and ``epoch`` are optional identity
    labels; anything else lives in the ``args`` dict.
    """

    __slots__ = ("name", "cat", "ph", "ts", "dur", "rank", "node",
                 "incarnation", "epoch", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts: float,
        dur: Optional[float] = None,
        rank: Optional[int] = None,
        node: Optional[int] = None,
        incarnation: Optional[int] = None,
        epoch: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.rank = rank
        self.node = node
        self.incarnation = incarnation
        self.epoch = epoch
        self.args = args or {}

    @property
    def end(self) -> float:
        """End time of a span (== ``ts`` for instants)."""
        return self.ts + (self.dur or 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = f" dur={self.dur:.6g}" if self.dur is not None else ""
        who = f" r{self.rank}" if self.rank is not None else ""
        return f"<TraceEvent {self.cat}/{self.name} t={self.ts:.6g}{span}{who}>"


_new_event = TraceEvent.__new__


class Tracer:
    """Event recorder bound to one simulator.

    Constructing a tracer attaches it: ``sim.tracer`` becomes this
    object, and every event from then on lands in :attr:`events`.
    Setting ``sim.tracer = NULL_TRACER`` detaches it again.
    """

    #: call sites check it before building event arguments
    enabled = True

    def __init__(self, sim):
        self.sim = sim
        self.events: List[TraceEvent] = []
        #: event name -> its subscribers, in subscription order
        self._subscribers: Dict[str, Tuple[Callable[[TraceEvent], None], ...]] = {}
        sim.tracer = self

    # -- live subscription ----------------------------------------------------
    def subscribe(self, name: str, callback: Callable[[TraceEvent], None]) -> None:
        """Call ``callback(event)`` on every event recorded as ``name``.

        An event of a name nobody subscribed to costs one dict
        membership test and no call.  A subscriber runs inside the frame
        that emitted the event, so it must not advance the simulation
        or kill processes: the frame it would destroy may be the one
        that is calling it.  Defer side effects through a zero-delay
        timeout.  A subscriber may unsubscribe itself while it runs.
        """
        self._subscribers[name] = self._subscribers.get(name, ()) + (callback,)

    def unsubscribe(self, name: str, callback: Callable[[TraceEvent], None]) -> None:
        """Drop ``callback``'s subscriptions to ``name`` (none is a no-op)."""
        rest = tuple(cb for cb in self._subscribers.pop(name, ()) if cb != callback)
        if rest:
            self._subscribers[name] = rest

    # -- recording -----------------------------------------------------------
    def instant(
        self,
        name: str,
        cat: str,
        rank: Optional[int] = None,
        node: Optional[int] = None,
        incarnation: Optional[int] = None,
        epoch: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record a point event at the current sim time."""
        # The per-message record: the ten slots filled here, without
        # the frame TraceEvent.__init__ would cost (complete(), a few
        # spans per checkpoint, just calls it).
        ev = _new_event(TraceEvent)
        ev.name = name
        ev.cat = cat
        ev.ph = PH_INSTANT
        ev.ts = self.sim.now
        ev.dur = None
        ev.rank = rank
        ev.node = node
        ev.incarnation = incarnation
        ev.epoch = epoch
        ev.args = args
        self.events.append(ev)
        if name in self._subscribers:
            for callback in self._subscribers[name]:
                callback(ev)

    def complete(
        self,
        name: str,
        cat: str,
        start: float,
        rank: Optional[int] = None,
        node: Optional[int] = None,
        incarnation: Optional[int] = None,
        epoch: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record a span from ``start`` to the current sim time."""
        ev = TraceEvent(name, cat, PH_COMPLETE, start, self.sim.now - start,
                        rank, node, incarnation, epoch, args)
        self.events.append(ev)
        if name in self._subscribers:
            for callback in self._subscribers[name]:
                callback(ev)


class TraceReader:
    """A trace reader with one handler per event name it reads.

    A subclass lists its names in ``EVENTS``; ``a.b`` is read by the
    method ``_on_a_b``.  Feed it live (:meth:`subscribe`: the tracer
    calls each bound handler itself) or a recorded trace (:meth:`replay`).
    """

    #: every event name the reader reads
    EVENTS: Tuple[str, ...] = ()

    def handlers(self) -> Dict[str, Callable[[TraceEvent], None]]:
        """Event name -> the one bound method that reads it."""
        return {name: getattr(self, "_on_" + name.replace(".", "_"))
                for name in self.EVENTS}

    def subscribe(self, tracer: Tracer) -> None:
        """Read ``tracer``'s events as they are recorded."""
        for name, handler in self.handlers().items():
            tracer.subscribe(name, handler)

    def replay(self, events: Iterable[TraceEvent]):
        """Feed a recorded trace, in order; returns the reader."""
        handlers = self.handlers()
        for ev in events:
            if ev.name in handlers:
                handlers[ev.name](ev)
        return self


class NullTracer:
    """The default tracer: records nothing, costs (almost) nothing.

    ``enabled`` is ``False`` so guarded call sites skip argument
    construction entirely; unguarded sites hit a no-op method.
    """

    enabled = False
    #: immutable: one object is shared by every untraced simulation
    events: Tuple[TraceEvent, ...] = ()

    def instant(self, *_a: Any, **_k: Any) -> None:
        pass

    def complete(self, *_a: Any, **_k: Any) -> None:
        pass


#: Shared no-op tracer every fresh :class:`Simulator` starts with.
NULL_TRACER = NullTracer()
