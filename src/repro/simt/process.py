"""Generator-coroutine processes for the DES kernel.

A *process* wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.simt.kernel.Event` objects; when a yielded event fires,
the process resumes with the event's value (or the event's exception is
thrown into the generator).

Two ways a process can die from the outside:

* :meth:`Process.interrupt` -- an :class:`Interrupt` is thrown into the
  generator at the current simulation time.  The generator may catch it
  and keep running (used e.g. for failure *notification*).
* :meth:`Process.kill` -- abrupt termination.  The generator is closed
  and never resumed; the process event fails with
  :class:`ProcessKilled`.  This models a node crash: a process on a
  dead node simply ceases to exist, mid-instruction, with no chance to
  clean up its protocol state.

A process body may also ``yield`` a *generator*: the *hand-off*.  The
trampoline then drives that subroutine itself, and the body receives
its return value (or its exception) at that ``yield``, exactly where
``yield from`` would deliver it.  A handed-off subroutine may hand off
in turn, to any depth.  The difference is the cost: under ``yield
from`` every resume of the subroutine enters each caller's frame only
to forward into it.  A rank's runtime body hands its application over
this way, and ``FMI_Loop`` its multi-event protocol entries (checkpoint,
restore, the checkpoint decision); application code and helpers of
an event or two keep ``yield from``.

A process may also ``yield a, b``: the *pair*, two events waited on in
that order in one resume.  When ``a`` fires the trampoline registers
on ``b`` (or relays it, if it already fired) without entering the
generator, which receives ``(a's value, b's value)`` -- or the
exception of whichever failed, ``a``'s at once -- exactly as ``x =
yield a`` followed by ``y = yield b`` would, at the same instants and
with the same callbacks dispatched; what goes is the resume in
between, which entered every frame of the process's stack only to
yield ``b``.  So use a pair only where both events exist before the
first wait and nothing runs between the two waits.  A second event
that is built after the first fires, or code between the waits,
keeps two ``yield``\\ s.  A refusal of ``b`` (cancelled, inert) comes
when ``a`` fires, where the second ``yield`` would have met it.

A body that *returns* a generator makes the *tail hand-off*: that
generator becomes the body, and the process ends with its outcome.  A
runtime body with nothing left to do after the application (the MPI
rank's) ends with ``return app`` and is gone -- no frame kept for the
whole run, no resume at the end only to pass the result on.  A
handed-off subroutine's return value is not a body: it goes back to the
caller, generator or not.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Generator, Optional

from repro.simt.kernel import (
    _EVENT_CLASSES, _PENDING, Event, SimulationError, Simulator,
)

__all__ = ["Process", "Interrupt", "ProcessKilled", "wait_chain", "waiters"]


def _registered(event: Event):
    """The callbacks in ``event``'s slot, read without turning the slot
    into a list: a report must not change the events it describes."""
    callbacks = event._callbacks
    cls = callbacks.__class__
    if cls is list:
        return callbacks
    return () if cls is tuple or callbacks is None else (callbacks,)


def waiters(event: Event) -> str:
    """Who ``event`` wakes: each callback named by its process or its
    ``__qualname__`` (a stalled run's report, :meth:`Simulator._stall`)."""
    names = []
    for cb in _registered(event):
        owner = getattr(cb, "__self__", None)
        if isinstance(owner, Process):
            names.append(f"process {owner.name!r}")
        elif isinstance(cb, Event):  # a record that is its own callback
            names.append(cb._what())
        else:
            names.append(getattr(cb, "__qualname__", type(cb).__qualname__))
    return ", ".join(names) or f"{event._what()} (inert)"


def wait_chain(event: Event) -> str:
    """What ``event`` waits on: the processes it joins, one ``_target``
    after another, then the event the last one waits on.  A process
    inside a hand-off names where it is: its generators' qualnames,
    outermost first (``[FmiProcess._main \u2192 app \u2192 ...]``).  A
    process waiting on the first event of a pair names the second
    after it (``..., then send 3\u21924 tag 7``)."""
    chain = []
    then = None
    while isinstance(event, Process) and len(chain) < 64:  # no cycle
        chain.append(f"process {event.name!r}" if event._caller is None else
                     f"process {event.name!r} [" + " \u2192 ".join(
                         getattr(gen, "__qualname__", type(gen).__name__)
                         for gen in reversed(event._stack())) + "]")
        then = event._pair
        event = event._target
    if event is not None:
        count = len(_registered(event))
        state = ("cancelled" if event._cancelled else
                 "triggered" if event.triggered else "untriggered")
        then = (f", then {then._what()}"  # a pair's second
                if then.__class__ in _EVENT_CLASSES else "")
        chain.append(f"{event._what()} ({state}, {count} "
                     f"callback{'' if count == 1 else 's'}){then}")
    return " \u2192 ".join(chain)


class _Wake(Event):
    """A process's bootstrap or relay wake: triggered when it is built,
    its one callback the process's resume.  Built with no Python frame
    where it is needed (``simt.kernel`` has the rule for such records)."""

    __slots__ = ()
    __init__ = object.__init__


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """The failure value of a process event after :meth:`Process.kill`."""

    def __init__(self, process: "Process", cause: Any = None):
        super().__init__(f"process {process.name!r} killed ({cause!r})")
        self.cause = cause


class Process(Event):
    """A running generator on the simulation timeline.

    The process is itself an :class:`Event`: it succeeds with the
    generator's return value, or fails with the uncaught exception.
    Other processes can therefore ``yield proc`` to join it.

    Yielding a generator hands it off (module docstring): while the
    subroutine runs, ``generator`` is the subroutine and ``_caller``
    the chain of suspended callers, ``(gen, rest)`` innermost first
    (None when there is none); a subroutine that yields a generator
    pushes itself on the chain, and its return pops its caller.
    Returning a generator from the body replaces ``generator`` with it
    (the tail hand-off).  Yielding a pair ``(a, b)`` waits on ``a``
    with ``b`` in ``_pair``, then on ``b`` with ``a``'s value there
    (module docstring).  Yielding a cancelled event fails the process
    with :class:`~repro.simt.kernel.SimulationError`: it would never
    fire.
    """

    __slots__ = ("generator", "name", "_target", "_resume_cb", "_caller")

    #: ``_pair`` is the kernel's ``_seq`` slot under a second name: a
    #: process is pushed once, when it ends, so the slot is free until
    #: then, and a rank costs no more bytes for it
    _pair = Event._seq

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None  # event we are waiting on
        #: the callers suspended at a hand-off ``yield``, innermost
        #: first: ``(gen, rest)``, or None
        self._caller: Optional[tuple] = None
        #: a yielded pair's second event while its first is awaited,
        #: then the first's value (boxed: ``_resume``) while the second
        #: is; else None
        self._pair = None
        self._resume_cb = self._resume
        # Bootstrap: resume once at the current time (a zero-delay
        # push: the immediate queue, as ``Event.succeed`` does it).
        init = _Wake()
        init.sim = sim
        init._callbacks = self._resume_cb
        init._value = None
        init._ok = True
        init._processed = False
        init._cancelled = False
        sim._seq += 1
        sim._nowq.append(init)

    # -- lifecycle ------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not finished or been killed."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the generator asap.

        No-op if the process already finished or was killed.
        """
        if self.triggered:
            return
        self._detach()
        evt = Event(self.sim)
        evt._ok = False
        evt._value = Interrupt(cause)
        evt._callbacks = self._resume_cb
        self.sim._push(evt, 0.0)
        self._target = evt

    def kill(self, cause: Any = None) -> None:
        """Terminate the process abruptly, never resuming the generator.

        The generator is closed (``finally`` blocks run, as in CPython
        process teardown) and the process event fails with
        :class:`ProcessKilled`.
        """
        if self.triggered:
            return
        self._detach()
        # If nobody else is waiting on the target, withdraw it: a
        # killed process must not leave a live-looking posted receive
        # behind to swallow a message meant for a living waiter.
        tgt = self._target
        if tgt is not None and not _registered(tgt) and not tgt.triggered:
            tgt.cancel()
        self._target = None
        # failed before the close: a ``finally`` that kills or
        # interrupts this process again finds it finished
        self._ok = False
        self._value = ProcessKilled(self, cause)
        self._close()
        self.sim._push(self, 0.0)

    def _stack(self) -> list:
        """The generators this process drives, innermost first: the
        running one, then each caller suspended at a hand-off."""
        gens, caller = [self.generator], self._caller
        while caller is not None:
            gen, caller = caller
            gens.append(gen)
        return gens

    def _close(self) -> None:
        """Close the generators innermost first, the order nested
        ``yield from`` gives, so their ``finally`` blocks run in the
        same order; the outermost stays as ``generator``."""
        for gen in self._stack():
            try:
                gen.close()
            except Exception:  # pragma: no cover - user finally blocks misbehaving
                pass
        self._caller = None
        self.generator = gen

    def _detach(self) -> None:
        """Stop listening to the event we were waiting on, and forget a
        pair's rest; a slot that held this process alone goes back to
        empty."""
        self._pair = None
        tgt = self._target
        if tgt is None:
            return
        callbacks = tgt._callbacks
        if callbacks.__class__ is list:
            try:
                callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        elif callbacks is self._resume_cb:
            tgt._callbacks = ()

    # -- the trampoline -------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:  # killed/finished
            return
        # Single-shot resume: if some *other* event still holds our
        # callback (an interrupt raced the bootstrap init before
        # ``_target`` was ever set, leaving two registrations), drop it
        # now -- otherwise that event later resumes the generator in
        # place of whatever it is actually waiting on, permanently
        # desynchronising yield values.  On the normal path ``_target``
        # *is* ``event`` and its callback slot was already cleared by
        # the dispatch loop, so there is nothing to drop.
        tgt = self._target
        if tgt is not None and tgt._callbacks is not None:
            self._detach()
        self._target = None
        ok = event._ok
        value = event._value
        nxt = self._pair
        if nxt is not None:
            if ok and nxt.__class__ in _EVENT_CLASSES:
                # the first fired: keep its value and wait on the
                # second, no resume.  A value that could pass for the
                # second (an event), for a box (a tuple) or for no pair
                # (None) is boxed in a 1-tuple; an envelope is kept as
                # it is, so a rank between its receive and its send
                # holds no tuple
                cls = value.__class__
                self._pair = ((value,) if cls in _EVENT_CLASSES
                              or cls is tuple or value is None else value)
            else:  # the second fired (the outcome), or the first failed
                self._pair = None
                if ok:
                    value = (nxt[0] if nxt.__class__ is tuple else nxt,
                             value)
                nxt = None
        if nxt is None:  # the generator's turn
            gen = self.generator
            while True:
                try:
                    if ok:
                        nxt = gen.send(value)
                    else:
                        nxt = gen.throw(value)
                except BaseException as exc:
                    # a return (generators raise StopIteration itself)
                    # or an uncaught exception
                    ok = exc.__class__ is StopIteration
                    value = exc.value if ok else exc
                    caller = self._caller
                    if caller is None:
                        if ok and value.__class__ is GeneratorType:
                            # the tail hand-off: the returned generator
                            # is the body from here on
                            gen = self.generator = value
                            value = None
                            continue
                        self._ok = ok
                        self._value = value
                        self.sim._push(self, 0.0)
                        return
                    # a handed-off subroutine ended: the outcome of its
                    # caller's ``yield``
                    gen, self._caller = caller
                    self.generator = gen
                    continue
                # every Event class is in the set: no call per wake
                cls = nxt.__class__
                if cls in _EVENT_CLASSES:
                    break
                if cls is tuple:  # first: more pairs than hand-offs
                    try:  # unpacked: a ``len`` would be a call per pair
                        first, second = nxt
                    except ValueError:
                        first = second = None
                    if (first.__class__ in _EVENT_CLASSES
                            and second.__class__ in _EVENT_CLASSES):
                        # the pair: wait on the first, keep the second
                        # (checked when the first fires, where a second
                        # ``yield`` would check it)
                        self._pair = second
                        nxt = first
                        break
                elif cls is GeneratorType:
                    # the hand-off: drive the subroutine from here on,
                    # its caller innermost on the chain
                    self._caller = (gen, self._caller)
                    gen = self.generator = nxt
                    ok = True
                    value = None
                    continue
                return self._refuse(
                    f"yielded {cls.__name__}, expected an Event or a "
                    "generator (or a pair of Events)")

        # (a withdrawn wire keeps ``()`` in its slot: the flag; a
        # cancelled process still fires, and may be joined)
        if not (nxt._processed or (nxt._callbacks is not None
                                   and not nxt._cancelled)):
            # a withdrawn event never fires: waiting on it would hang
            # the process with nothing to say why
            return self._refuse(
                f"yielded a {'cancelled' if nxt._cancelled else 'inert'} "
                f"{type(nxt).__name__}, which never fires")
        self._target = nxt
        if nxt._processed:
            # Already fired: resume on a fresh zero-delay event carrying
            # the same outcome so scheduling order stays heap-driven.
            sim = self.sim
            relay = _Wake()
            relay.sim = sim
            relay._callbacks = self._resume_cb
            relay._value = nxt._value
            relay._ok = nxt._ok
            relay._processed = False
            relay._cancelled = False
            sim._seq += 1
            sim._nowq.append(relay)
            self._target = relay
            return
        # register in the slot (kernel docstring): empty -> the callable,
        # one -> a list of both, a list -> appended
        callbacks = nxt._callbacks
        cls = callbacks.__class__
        if cls is tuple:
            nxt._callbacks = self._resume_cb
        elif cls is list:
            callbacks.append(self._resume_cb)
        else:
            nxt._callbacks = [callbacks, self._resume_cb]

    def _refuse(self, what: str) -> None:
        """Fail the process for a yield it cannot wait on."""
        self._ok = False
        self._value = SimulationError(f"process {self.name!r} {what}")
        self.sim._push(self, 0.0)
        self._close()
