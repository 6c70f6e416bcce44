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

* **A change of the flow set is one frame.**  A flow's start, its
  deadline's pop, the end of a transfer's overhead and a capacity
  change all run :meth:`~BandwidthResource._change`, which does three
  things in order: apply the progress accrued since the last change,
  add the new flow or drain the finished ones, and re-arm the pipe.
  The kernel dispatches it directly -- it is the callback of the
  pipe's deadline entry and of every overhead timer -- and the wire
  (``cluster.network``), :meth:`~BandwidthResource.transfer` and
  :meth:`~BandwidthResource.set_capacity` call it.
* **The earliest finisher is kept, not found.**  A checkpoint burst
  starts most of its flows at the instant of the pipe's previous
  change (on the Fig 15 crash run, 72,483 of 92,722 starts; 15,947
  more find the pipe idle), so the pipe keeps its flow count and its
  earliest finisher's bytes left (``_count``, ``_low``) as the last
  change left them.  A change at that same instant applies no
  progress and scans no flow: a start appends and compares.  A change at a later instant subtracts the
  progress from every flow and from ``low``, and ``low`` stays exact:
  IEEE rounding is monotone (``a <= b`` gives ``a - p <= b - p``), so
  the earliest finisher stays earliest and ``low - p`` is its new
  value bit for bit (an idle pipe keeps ``inf``).  A drain is one
  pass: progress, threshold test and compaction, flow by flow.
* **One armed entry per pipe.**  Every change moves the completion
  deadline, but only the newest deadline ever does any work.  So a
  change always *reserves* its place in the kernel's order -- it
  computes the absolute deadline and takes the next sequence number,
  exactly as a fresh ``Timeout`` would -- and reaches the heap only
  when it has to: no entry is armed, or the new deadline is earlier
  than the armed one (which then pops inert), or the deadline is the
  current instant (the immediate queue).  Otherwise the armed entry
  stays, and when it pops ahead of the reserved ``(when, seq)`` it
  touches no flow and pushes itself back at exactly that reserved
  position.  The live drain therefore runs at the heap position it
  always had, with the floats it always saw; what is gone are entries
  that dispatched nothing.  ``tests/pipe_reference.py`` keeps the
  arm-on-every-change pipe as the oracle for this.
* **No frame but the change.**  A flow has no constructor, the flow
  count comes out of the progress scan, and the pipe pushes its own
  heap entries -- which is why the not-a-number and infinity guards
  sit on the public arguments here rather than in ``Timeout``.  A
  transfer's completion event is a slotted :class:`_Transfer`, which
  the drain completes in place, with ``Event.succeed``'s stores and
  push; a transfer that first pays a fixed overhead waits as a slotted
  :class:`_DelayedStart` timer pushed inline, at the ``(when, seq)`` a
  ``Timeout`` would take.  Both are built with no Python frame
  (``simt.kernel`` has the rule), and no closure waits per transfer.
  Any other target -- the wire's join -- and a zero-byte start call
  ``succeed``.
"""

from __future__ import annotations

from heapq import heappush
from typing import List, Optional

from repro.simt.kernel import _INF, _PENDING, Event, Simulator

__all__ = ["BandwidthResource"]


class _Flow:
    """One transfer in flight; :meth:`BandwidthResource._change` fills
    the slots (no ``__init__``: it would be a frame per message).
    ``event`` is the completion target: a :class:`_Transfer` the
    draining frame completes in place, or an :class:`Event` whose
    ``succeed`` it calls (``cluster.network``'s wire makes that the join
    of its two flows)."""

    __slots__ = ("remaining", "event", "nbytes")


class _Transfer(Event):
    """The event a :meth:`BandwidthResource.transfer` completes, built
    with no Python frame; ``pipe`` and ``nbytes`` name it in a stalled
    run's report."""

    __slots__ = ("pipe", "nbytes")
    __init__ = object.__init__

    def _what(self) -> str:
        return f"transfer of {self.nbytes!r} B on {self.pipe.name}"


class _DelayedStart(Event):
    """The overhead timer of a transfer: triggered when it is built, its
    one callback the pipe's :meth:`~BandwidthResource._change`, which
    starts the flow of ``done`` when it pops.  A record built with no
    Python frame, not a ``Timeout`` and a closure -- three cells and a
    function object per message are work for the cyclic collector, and
    with 16k ranks in one heap that is the wall clock."""

    __slots__ = ("done",)
    __init__ = object.__init__


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
        #: ``len(_flows)`` and the least ``remaining`` among them
        #: (``inf`` for none), as of the last change
        self._count = 0
        self._low = _INF
        self._last = sim.now
        #: bytes/second per flow, as of the last change that found
        #: flows (the flow set and the capacity cannot change without one)
        self._rate = 0.0
        # -- the one armed entry (see the module docstring) --
        #: the one callback every entry of this pipe carries in its slot
        self._fire = self._change
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
        # a chained compare: NaN and inf must not reach the heap
        if not 0.0 <= overhead < _INF:
            raise ValueError(f"overhead must be >= 0 and finite, got {overhead!r}")
        sim = self.sim
        done = _Transfer()
        done.sim = sim
        done._callbacks = ()
        done._value = _PENDING
        done._ok = None
        done._processed = False
        done._cancelled = False
        done.pipe = self
        done.nbytes = nbytes
        if overhead > 0:
            # Charge the fixed overhead first, then enter the shared
            # pipe: a Timeout's fill and push, with the pipe's callback
            timer = _DelayedStart()
            timer.sim = sim
            timer._callbacks = self._fire
            timer._value = None
            timer._ok = True
            timer._processed = False
            timer._cancelled = False
            timer.done = done
            timer._seq = sim._seq = sim._seq + 1
            when = sim.now + overhead
            if when == sim.now:
                sim._nowq.append(timer)
            elif when in sim._at:
                sim._at[when].append(timer)
            else:
                sim._at[when] = [timer]
                heappush(sim._heap, when)
        else:
            self._change(None, nbytes, done)
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
        # the progress so far runs at ``_rate``, the old capacity's share
        self.capacity = float(capacity)
        self._change(None)

    def time_for(self, nbytes: float) -> float:
        """Uncontended transfer time for ``nbytes`` (planning helper)."""
        return nbytes / self.capacity

    # -- internals ----------------------------------------------------------------
    def _change(self, entry: Optional[Event], nbytes: float = 0.0,
                done: Optional[Event] = None) -> None:
        """One change of the flow set, in one frame (module docstring).

        ``entry`` is what the kernel popped -- the pipe's deadline entry
        or a :class:`_DelayedStart` -- or None for a direct call: the
        start of a flow of ``nbytes`` completing ``done``, or, with
        neither, a capacity change.
        """
        sim = self.sim
        if done is None:
            if entry.__class__ is _DelayedStart:  # its overhead is paid
                done = entry.done
                nbytes = done.nbytes
            elif entry is not None and self._due_seq:
                # Popped ahead of the deadline: touch no flow (their
                # floats must see exactly the updates a live deadline
                # applies) and move to the reserved *absolute* position
                # -- ``now + delay`` would not be ``when`` in floats.
                # That sequence number predates everything in the
                # immediate queue, so a bucket is its place even when
                # ``when`` is this instant.
                seq, self._due_seq = self._due_seq, 0
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
        if done is not None and done._callbacks is None:
            return  # receiver abandoned before start (e.g. killed)

        # 1. The progress since the last change.  The flow count and the
        # earliest finisher's bytes left are kept as the last change
        # left them, so a change at that same instant applies nothing
        # and scans nothing; a later one subtracts the same progress
        # from ``low`` as from every flow, which keeps it exact (module
        # docstring).
        now = sim.now
        flows = self._flows
        count = self._count
        low = self._low
        progressed = (now - self._last) * self._rate if now > self._last else 0.0
        self._last = now

        # 2. The drain of the finished flows, or the new flow.
        armed_at = self._armed_at
        if done is None and entry is not None:
            # Popped at its deadline, which was the earliest finisher's;
            # the entry is free for re-use.  One pass applies the
            # progress (x - 0.0 is x, bit for bit), tests the threshold
            # and compacts.  Float residue on multi-GB flows can exceed
            # the absolute epsilon, but that flow *is* done.
            armed_at = self._armed_at = None
            low -= progressed
            threshold = self._EPS if low <= self._EPS else low + self._EPS
            count = 0
            low = _INF
            for flow in flows:
                remaining = flow.remaining = flow.remaining - progressed
                if remaining > threshold:
                    flows[count] = flow
                    count += 1
                    if remaining < low:
                        low = remaining
                else:
                    self.bytes_done += flow.nbytes
                    event = flow.event
                    if event._callbacks is not None and event._value is _PENDING:
                        if event.__class__ is _Transfer:  # Event.succeed, in place
                            event._ok = True
                            event._value = None
                            sim._seq += 1
                            sim._nowq.append(event)
                        else:  # the wire's join
                            event.succeed(None)
            del flows[count:]
        else:
            if progressed and count:
                low -= progressed
                for flow in flows:
                    flow.remaining -= progressed
            # (with no ``done``, a capacity change: the re-arm is all of it)
            if done is not None:
                if nbytes <= self._EPS:
                    self.bytes_done += nbytes
                    done.succeed(None)
                else:
                    flow = _Flow()
                    flow.nbytes = nbytes
                    remaining = flow.remaining = float(nbytes)
                    flow.event = done
                    flows.append(flow)
                    count += 1
                    if remaining < low:
                        low = remaining
        self._count = count
        self._low = low

        # 3. Re-arm: always take the deadline's place in the kernel's
        # order (the next sequence number); push an entry only when the
        # armed one cannot stand in for it.
        if not count:
            if armed_at is not None:
                self._entry._callbacks = None  # still pops, inert
                self._entry = self._armed_at = None
                self._due_seq = 0
            return
        rate = self._rate = self.capacity / count
        # The larger of low and 0.0, without the call (like the builtin
        # it keeps a -0.0, which gives the same ``when``)
        when = now + (0.0 if low < 0.0 else low) / rate
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
