"""The arm-on-every-change fair-share pipe, kept as a test oracle.

This is :class:`~repro.simt.resources.BandwidthResource` as it stood
before the pipe learned to keep one heap entry: every change of the
flow set arms a fresh :class:`~repro.simt.kernel.Timeout` and the one
it supersedes stays on the heap to pop inert.  The class below is
preserved verbatim; ``test_simt_resources.py`` drives it and the
production pipe with the same random schedule and asserts that every
callback fires at the same instant in the same global order, that
every flow completes at the same float, and that ``bytes_done`` agrees.

It defines *when* a live callback fires; do not optimise it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.simt.kernel import _PENDING, Event, Simulator, Timeout

__all__ = ["ReferenceBandwidthResource"]


class _Flow:
    __slots__ = ("remaining", "event", "nbytes")

    def __init__(self, nbytes: float, event: Event):
        self.nbytes = nbytes
        self.remaining = float(nbytes)
        self.event = event


class ReferenceBandwidthResource:
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
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._flows: List[_Flow] = []
        self._last = sim.now
        #: the one completion timer that may still call back
        self._timer: Optional[Timeout] = None
        #: cumulative bytes fully transferred (for utilization stats)
        self.bytes_done: float = 0.0

    # -- public ----------------------------------------------------------------
    def transfer(self, nbytes: float, overhead: float = 0.0) -> Event:
        """Move ``nbytes`` through the pipe; event fires at completion."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        done = Event(self.sim)
        if overhead > 0:
            # Charge the fixed overhead first, then enter the shared pipe.
            t = self.sim.timeout(overhead)
            t.callbacks.append(lambda _e: self._start(nbytes, done))
        else:
            self._start(nbytes, done)
        return done

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def set_capacity(self, capacity: float) -> None:
        """Change the pipe's capacity mid-simulation (limping links).

        In-flight flows keep the progress accrued at the old rate and
        continue at the new one; completion timers are recomputed.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
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
        if done.callbacks is None:
            return  # receiver abandoned before start (e.g. killed)
        self._advance()
        if nbytes <= self._EPS:
            self.bytes_done += nbytes
            done.succeed(None)
            self._reschedule()
            return
        self._flows.append(_Flow(nbytes, done))
        self._reschedule()

    def _advance(self) -> None:
        """Apply progress accrued since the last recomputation."""
        now = self.sim.now
        flows = self._flows
        if flows and now > self._last:
            progressed = (now - self._last) * (self.capacity / len(flows))
            for flow in flows:
                flow.remaining -= progressed
        self._last = now

    def _reschedule(self) -> None:
        """Arm the completion timer for the current flow set.

        The timer this supersedes stays where it is in the event heap
        and still pops (so the kernel's event sequence does not depend
        on how often the flow set changed) but pops inert: it has lost
        its callback list.  Only the newest timer reaches
        :meth:`_on_timer`.
        """
        timer = self._timer
        if timer is not None:
            timer.callbacks = None
            self._timer = None
        flows = self._flows
        if not flows:
            return
        min_remaining = flows[0].remaining
        for flow in flows:
            if flow.remaining < min_remaining:
                min_remaining = flow.remaining
        dt = max(min_remaining, 0.0) / (self.capacity / len(flows))
        timer = self._timer = Timeout(self.sim, dt)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, _timer: Event) -> None:
        self._advance()
        flows = self._flows
        threshold = self._EPS
        finished = [f for f in flows if f.remaining <= threshold]
        if not finished:
            # Float residue on multi-GB flows can exceed the absolute
            # epsilon; but this timer was armed exactly for the
            # minimum-remaining flow's deadline, so that flow *is* done.
            threshold = flows[0].remaining
            for flow in flows:
                if flow.remaining < threshold:
                    threshold = flow.remaining
            threshold += self._EPS
            finished = [f for f in flows if f.remaining <= threshold]
        self._flows = [f for f in flows if f.remaining > threshold]
        for flow in finished:
            self.bytes_done += flow.nbytes
            event = flow.event
            if event.callbacks is not None and event._value is _PENDING:
                event.succeed(None)
        self._reschedule()
