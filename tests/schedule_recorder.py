"""A simulator that records which callback it dispatched, and when.

``test_golden_order.py`` pins the sha256 of the sequence across commits
(``SCHEDULE``); ``test_wire_conformance.py`` compares the sequences of
two fabrics entry by entry.  The trace digest sees only what an
instrumented site reports; this sees the order of everything the kernel
ran -- every process resume, message delivery, pipe timer, wire start
and landing -- at its float.
"""

from __future__ import annotations

import hashlib

from repro.simt.kernel import Event, SimulationError, Simulator
from repro.simt.process import Process
from repro.simt.resources import BandwidthResource

__all__ = ["RecordingSimulator"]


class RecordingSimulator(Simulator):
    """A simulator whose :meth:`run` is a single-stepping loop that
    records ``(repr(now), kind, identity)`` of every callback just
    before :meth:`~Simulator.step` dispatches it.  The loop looks at
    the entry ``step`` will pop, so the pop itself stays the kernel's:
    this is the pop-side seam a schedule-perturbing simulator
    (ROADMAP 4b) would take over.

    ``digest`` hashes the sequence; ``entries`` also keeps it when the
    simulator was built with ``keep=True``.
    """

    #: a wire's join bookkeeping where a fabric has it as callbacks
    #: (``tests/wire_reference.py``): its own counter, nothing shared
    UNRECORDED = ("part_done", "on_wire")

    def __init__(self, keep: bool = False):
        super().__init__()
        self.digest = hashlib.sha256()
        self.entries = [] if keep else None
        #: envelope -> its index in first-dispatch order: a message's
        #: name, shared by its duplicate's twin and every re-entry
        self._envs = {}

    def run(self, until=None, max_events=None):
        limit_event = until if isinstance(until, Event) else None
        limit_time = None
        if limit_event is None and until is not None:
            limit_time = float(until)
        heap, nowq = self._heap, self._nowq
        steps = 0
        while heap or nowq:
            if limit_event is not None and limit_event.processed:
                break
            if nowq and (not heap or heap[0] > self.now):
                when, event = self.now, nowq[0]
            else:
                when = heap[0]
                event = self._at[when][0]
                if limit_time is not None and when > limit_time:
                    self.now = limit_time
                    break
            for callback in event.callbacks or ():
                self._record(when, callback, event)
            self.step()
            steps += 1
            if max_events is not None and steps >= max_events:
                if limit_event is not None and limit_event.processed:
                    break
                raise SimulationError(f"exceeded max_events={max_events}")
        if limit_event is not None:
            return limit_event.value
        return None

    def _record(self, when, callback, event):
        owner = getattr(callback, "__self__", None)
        name = getattr(callback, "__name__", "")
        if isinstance(owner, Process):
            kind, identity = "process." + name, owner.name
        elif isinstance(owner, BandwidthResource):
            # one pipe method takes both pops; the labels, which the
            # golden digests hash, name the entry
            if type(event).__name__ == "_DelayedStart":
                kind = "delayed-start"
                identity = (owner.name, repr(event.done.nbytes))
            else:
                kind, identity = "pipe._on_timer", owner.name
        elif type(owner).__name__ == "_Wire":
            if name in self.UNRECORDED:
                return
            kind = "wire." + name
            identity = (owner.src.id, owner.dst.id, repr(owner.nbytes))
        elif type(callback).__name__.endswith("Arrival"):
            env = callback.env  # transport's _Arrival / _LossyArrival
            kind = "arrival"
            identity = (env.src, env.dst, env.tag,
                        self._envs.setdefault(env, len(self._envs)))
        else:
            kind = getattr(callback, "__qualname__", type(callback).__qualname__)
            identity = ""
        entry = f"{when!r}|{kind}|{identity!r}"
        self.digest.update(entry.encode() + b"\n")
        if self.entries is not None:
            self.entries.append(entry)
