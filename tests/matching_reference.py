"""The pre-refactor linear matching engine, kept as a test oracle.

This is the original deque-scan implementation of
:class:`~repro.net.matching.MatchingEngine`, preserved verbatim:
``test_matching_conformance.py`` drives this engine and the indexed
one with the same random post/deliver/reset/cancel sequence and
asserts identical match order, FIFO non-overtaking and counter values.

It must keep the exact observable semantics of the indexed engine; do
not optimise it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.net.matching import ANY_SOURCE, ANY_TAG, RecvCancelled
from repro.net.message import Envelope
from repro.simt.kernel import Event, Simulator

__all__ = ["ReferenceMatchingEngine"]


class _PostedRecv:
    __slots__ = ("source", "tag", "comm_id", "event")

    def __init__(self, source: int, tag: int, comm_id: int, event: Event):
        self.source = source
        self.tag = tag
        self.comm_id = comm_id
        self.event = event

    def matches(self, env: Envelope) -> bool:
        return (
            env.comm_id == self.comm_id
            and (self.source == ANY_SOURCE or env.src == self.source)
            and (self.tag == ANY_TAG or env.tag == self.tag)
        )


class ReferenceMatchingEngine:
    """Linear-scan matching: O(posted + unexpected) per operation."""

    #: optional observer called as ``match_sink(source, tag, env)`` with
    #: the posted pattern and the envelope, just before each match fires
    #: (same contract as the indexed engine's).
    match_sink = None

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._posted: Deque[_PostedRecv] = deque()
        self._unexpected: Deque[Envelope] = deque()
        #: observability counters
        self.delivered = 0
        self.matched_unexpected = 0
        self.matched_posted = 0
        #: dead posted receives pruned during delivery scans
        self.pruned_dead = 0
        #: lifetime totals across every recovery reset
        self.cancelled_total = 0
        self.purged_total = 0

    # -- receive side -----------------------------------------------------
    def post(self, source: int, tag: int, comm_id: int) -> Event:
        """Post a receive; the event fires with the matching Envelope."""
        evt = Event(self.sim)
        probe = _PostedRecv(source, tag, comm_id, evt)
        # First look in the unexpected queue (oldest first: FIFO).
        for env in self._unexpected:
            if probe.matches(env):
                self._unexpected.remove(env)
                self.matched_unexpected += 1
                if self.match_sink is not None:
                    self.match_sink(source, tag, env)
                evt.succeed(env)
                return evt
        self._posted.append(probe)
        return evt

    def probe(self, source: int, tag: int, comm_id: int) -> Optional[Envelope]:
        """Non-destructive check of the unexpected queue (MPI_Iprobe)."""
        probe = _PostedRecv(source, tag, comm_id, Event(self.sim))
        for env in self._unexpected:
            if probe.matches(env):
                return env
        return None

    # -- delivery side ------------------------------------------------------
    def deliver(self, env: Envelope) -> None:
        """An envelope arrived from the transport."""
        self.delivered += 1
        for posted in list(self._posted):
            if not posted.matches(env):
                continue
            if posted.event.callbacks is not None and not posted.event.triggered:
                self._posted.remove(posted)
                self.matched_posted += 1
                if self.match_sink is not None:
                    self.match_sink(posted.source, posted.tag, env)
                posted.event.succeed(env)
                return
            # The waiter died (killed process / already-cancelled
            # event): prune the entry and keep scanning -- a *live*
            # receive further down the deque may also match, and must
            # not be shadowed by the corpse.
            self._posted.remove(posted)
            self.pruned_dead += 1
        self._unexpected.append(env)

    # -- recovery ------------------------------------------------------------
    def reset(self) -> Tuple[int, int]:
        """Cancel all posted receives and purge unexpected messages.

        Returns ``(cancelled, purged)`` counts.
        """
        cancelled = 0
        while self._posted:
            posted = self._posted.popleft()
            if posted.event.callbacks is not None and not posted.event.triggered:
                posted.event.fail(RecvCancelled())
                cancelled += 1
        purged = len(self._unexpected)
        self._unexpected.clear()
        self.cancelled_total += cancelled
        self.purged_total += purged
        return cancelled, purged

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    @property
    def posted_count(self) -> int:
        return len(self._posted)

    @property
    def pending_posted(self) -> int:
        """Posted receives still waiting on a live event -- the ones a
        finished rank must have drained (chaos invariant feed)."""
        return sum(
            1 for p in self._posted
            if p.event.callbacks is not None and not p.event.triggered
        )
