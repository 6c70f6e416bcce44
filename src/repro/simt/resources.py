"""The fair-share bandwidth resource.

:class:`BandwidthResource` is the workhorse of the hardware model.  A
NIC, a memory bus, or a filesystem stream is a pipe with a fixed
capacity in bytes/second; concurrent transfers share it *processor-
sharing* style (each of the *k* active flows progresses at capacity/k).
This is what makes, e.g., 12 ranks on one node checkpointing 512 MB
each take ~12x longer through the node's single InfiniBand link than
one rank would -- the effect behind Figure 12's per-node throughput
numbers.

Hot-path notes (twelve ranks per node start and finish flows on the
same pipe all the time; on a checkpointing run this file is entered
once per message part):

* **One armed entry per pipe.**  Every change of the flow set moves
  the completion deadline, but only the newest deadline ever does any
  work.  So a change always *reserves* its place in the kernel's order
  -- it computes the absolute deadline and takes the next sequence
  number, exactly as a fresh ``Timeout`` would -- and reaches the heap
  only when it has to: no entry is armed, or the new deadline is
  earlier than the armed one (which then pops inert), or the deadline
  is the current instant (the immediate queue).  Otherwise the armed
  entry stays, and when it pops ahead of the reserved ``(when, seq)``
  it touches no pipe state and pushes itself back at exactly that
  reserved position.  The live :meth:`~BandwidthResource._on_timer`
  therefore runs at the heap position it always had, with the floats it
  always saw; what is gone are entries that dispatched nothing.
  ``tests/pipe_reference.py`` keeps the arm-on-every-change pipe as the
  oracle for this.
* The bookkeeping lives in the frame that needs it: the progress
  update is written out in :meth:`~BandwidthResource._start` and
  ``_on_timer``, the flow count comes out of the scan that finds the
  next deadline, a flow has no constructor, and the pipe pushes its own
  heap entries -- which is why the not-a-number guards sit on the
  public arguments here rather than in ``Timeout``.
* No closure per transfer: a flow that first pays a fixed overhead
  waits as a slotted :class:`_DelayedStart` on its overhead timer, and
  that record is the transfer's event too.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional

from repro.simt.kernel import _INF, _PENDING, Event, Simulator, Timeout

__all__ = ["BandwidthResource"]


class _Flow:
    """One transfer in flight; :meth:`BandwidthResource._start` fills
    the slots (no ``__init__``: it would be a frame per message).
    ``event`` is the completion target, an :class:`Event` whose
    ``succeed`` the draining frame calls (``cluster.network``'s wire
    makes it the join of its two flows)."""

    __slots__ = ("remaining", "event", "nbytes")


class _DelayedStart(Event):
    """A transfer still paying its fixed overhead, and the event its
    completion fires: the callback on the overhead timer, which then
    enters the pipe.  A record built with no Python frame by
    :meth:`BandwidthResource.transfer` (``simt.kernel`` has the rule),
    not a closure -- three cells and a function object per message are
    work for the cyclic collector, and with 16k ranks in one heap that
    is the wall clock."""

    __slots__ = ("pipe", "nbytes")
    __init__ = object.__init__

    def __call__(self, _timer: Event) -> None:
        self.pipe._start(self.nbytes, self)

    def _what(self) -> str:
        return f"transfer of {self.nbytes!r} B on {self.pipe.name}"


class BandwidthResource:
    """A pipe of ``capacity`` bytes/second shared fairly between flows.

    :meth:`transfer` registers a flow of ``nbytes`` and returns an event
    that fires when the flow completes.  At any instant each of the *k*
    active flows progresses at ``capacity / k`` bytes/second (max-min
    fair share with equal demands).  Completion times are recomputed
    whenever a flow starts or finishes.

    A per-flow fixed ``overhead`` (seconds) models per-operation setup
    cost (e.g. per-message software latency) and is added *before* the
    bytes start moving.
    """

    #: bytes below this are considered finished (float-noise guard)
    _EPS = 1e-6

    def __init__(self, sim: Simulator, capacity: float, name: str = "bw"):
        # ``not >``: NaN must be refused here, nothing downstream will.
        if not capacity > 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._flows: List[_Flow] = []
        self._last = sim.now
        #: bytes/second per flow, as of the last :meth:`_reschedule`
        #: that found flows (the flow set and the capacity cannot
        #: change without one)
        self._rate = 0.0
        # -- the one armed entry (see the module docstring) --
        #: the one callback every entry of this pipe carries in its slot
        self._fire = self._on_timer
        #: the newest entry object; on the heap (or the immediate
        #: queue) iff ``_armed_at`` is set, free for re-use otherwise
        self._entry: Optional[Event] = None
        #: heap time of the armed entry, None when nothing is armed
        self._armed_at: Optional[float] = None
        #: the reserved deadline ``(_due_at, _due_seq)`` the armed entry
        #: has still to move to; ``_due_seq`` is 0 when it already sits
        #: at its deadline (sequence numbers start at 1)
        self._due_at = 0.0
        self._due_seq = 0
        #: cumulative bytes fully transferred (for utilization stats)
        self.bytes_done: float = 0.0

    # -- public ----------------------------------------------------------------
    def transfer(self, nbytes: float, overhead: float = 0.0) -> Event:
        """Move ``nbytes`` through the pipe; event fires at completion."""
        if not nbytes >= 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        if not overhead >= 0:
            raise ValueError(f"overhead must be >= 0, got {overhead!r}")
        sim = self.sim
        if overhead > 0:
            # Charge the fixed overhead first, then enter the shared pipe.
            done = _DelayedStart()
            done.sim = sim
            done._callbacks = ()
            done._value = _PENDING
            done._ok = None
            done._processed = False
            done._cancelled = False
            done.pipe = self
            done.nbytes = nbytes
            Timeout(sim, overhead)._callbacks = done
        else:
            done = Event(sim)
            self._start(nbytes, done)
        return done

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def set_capacity(self, capacity: float) -> None:
        """Change the pipe's capacity mid-simulation (limping links).

        In-flight flows keep the progress accrued at the old rate and
        continue at the new one; the completion deadline is recomputed.
        """
        if not capacity > 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        if capacity == self.capacity:
            return
        self._advance()
        self.capacity = float(capacity)
        self._reschedule()

    def time_for(self, nbytes: float) -> float:
        """Uncontended transfer time for ``nbytes`` (planning helper)."""
        return nbytes / self.capacity

    # -- internals ----------------------------------------------------------------
    def _start(self, nbytes: float, done: Event) -> None:
        if done._callbacks is None:
            return  # receiver abandoned before start (e.g. killed)
        # _advance(), written out
        now = self.sim.now
        flows = self._flows
        if flows and now > self._last:
            progressed = (now - self._last) * self._rate
            for flow in flows:
                flow.remaining -= progressed
        self._last = now
        if nbytes <= self._EPS:
            self.bytes_done += nbytes
            done.succeed(None)
        else:
            flow = _Flow()
            flow.nbytes = nbytes
            flow.remaining = float(nbytes)
            flow.event = done
            flows.append(flow)
        self._reschedule()

    def _advance(self) -> None:
        """Apply progress accrued since the last recomputation
        (:meth:`_start` and :meth:`_on_timer` carry their own copy)."""
        now = self.sim.now
        flows = self._flows
        if flows and now > self._last:
            progressed = (now - self._last) * self._rate
            for flow in flows:
                flow.remaining -= progressed
        self._last = now

    def _reschedule(self) -> None:
        """Set the completion deadline for the current flow set.

        Always takes the deadline's place in the kernel's order (the
        next sequence number); pushes an entry only when the armed one
        cannot stand in for it -- see the module docstring.
        """
        flows = self._flows
        armed_at = self._armed_at
        if not flows:
            if armed_at is not None:
                self._entry._callbacks = None  # still pops, inert
                self._entry = self._armed_at = None
                self._due_seq = 0
            return
        count = 0
        min_remaining = flows[0].remaining
        for flow in flows:
            count += 1
            if flow.remaining < min_remaining:
                min_remaining = flow.remaining
        rate = self._rate = self.capacity / count
        sim = self.sim
        now = sim.now
        # The larger of min_remaining and 0.0, without the call (like
        # the builtin it keeps a -0.0, which gives the same ``when``)
        when = now + (0.0 if min_remaining < 0.0 else min_remaining) / rate
        if not now <= when < _INF:  # inf bytes, or through an inf pipe
            raise ValueError(f"{self.name}: completion time is {when!r}")
        seq = sim._seq = sim._seq + 1
        if armed_at is None:
            entry = self._entry
            if entry is None:
                entry = self._entry = Event(sim)
        elif when >= armed_at and when > now:
            # The armed entry pops first and moves itself here; this
            # reservation may itself be superseded and never be pushed.
            self._due_at = when
            self._due_seq = seq
            sim._reserved += 1
            return
        else:
            # An earlier deadline (or one at this very instant, whose
            # place is in the immediate queue): the armed entry cannot
            # stand in for it, and pops inert.
            self._entry._callbacks = None
            entry = self._entry = Event(sim)
            self._due_seq = 0
        entry._callbacks = self._fire
        entry._seq = seq
        self._armed_at = when
        if when == now:
            sim._nowq.append(entry)
        elif when in sim._at:  # Simulator._push, inlined
            sim._at[when].append(entry)
        else:
            sim._at[when] = [entry]
            heappush(sim._heap, when)

    def _on_timer(self, entry: Event) -> None:
        sim = self.sim
        seq = self._due_seq
        if seq:
            # Popped ahead of the deadline: touch no flow (their floats
            # must see exactly the updates a live timer applies) and
            # move to the reserved *absolute* position -- ``now + delay``
            # would not be ``when`` in floats.  That sequence number
            # predates everything in the immediate queue, so a bucket
            # is its place even when ``when`` is this instant.
            self._due_seq = 0
            when = self._armed_at = self._due_at
            entry._callbacks = self._fire
            sim._reserved -= 1
            entry._seq = seq
            at = sim._at
            if when not in at:
                at[when] = [entry]
                heappush(sim._heap, when)
            elif (at[when][-1] or entry)._seq <= seq:  # None: all walked
                at[when].append(entry)
            else:
                sim._insert(entry, when, seq)
            return
        self._armed_at = None  # popped at its deadline; free for re-use
        # _advance(), written out and fused with the scan for the flow
        # this deadline was set for (x - 0.0 is x, bit for bit)
        now = sim.now
        flows = self._flows
        progressed = (now - self._last) * self._rate if now > self._last else 0.0
        self._last = now
        low = flows[0].remaining - progressed
        for flow in flows:
            remaining = flow.remaining = flow.remaining - progressed
            if remaining < low:
                low = remaining
        # Float residue on multi-GB flows can exceed the absolute
        # epsilon; but this deadline was exactly the minimum-remaining
        # flow's, so that flow *is* done.
        threshold = self._EPS if low <= self._EPS else low + self._EPS
        kept = 0
        for flow in flows:
            if flow.remaining > threshold:
                flows[kept] = flow
                kept += 1
            else:
                self.bytes_done += flow.nbytes
                event = flow.event
                if event._callbacks is not None and event._value is _PENDING:
                    event.succeed(None)
        del flows[kept:]
        self._reschedule()
