"""MPI-style message matching.

Incoming envelopes are matched against posted receives on
``(source, tag)`` with wildcards, FIFO within each matching pair --
the non-overtaking rule MPI guarantees and applications rely on.
Unmatched arrivals wait in the unexpected-message queue.

On FMI recovery the engine is :meth:`reset`: posted receives are
cancelled (their events fail with :class:`RecvCancelled`) and
unexpected messages from the old epoch are purged.

Index layout
------------

Both queues are hash-bucket indexes keyed on ``(comm_id, source,
tag)``; a wildcard pattern uses :data:`ANY_SOURCE` / :data:`ANY_TAG`
in its key.

* **posted receives** -- each posted receive sits in exactly one
  bucket: its own pattern.  While a wildcard receive is filed, a
  delivery consults four buckets (exact, source-wildcard,
  tag-wildcard, both-wildcard) and takes the live head with the
  smallest post sequence number -- the match order of a linear scan
  of one deque.  With none filed (``_wild_posted`` counts them) it
  consults the exact bucket alone: one ``dict.get``.  A bucket has two
  shapes: the bare ``_PostedRecv`` while it holds one receive -- the
  common case, one waiting receive per pattern per rank -- and a
  ``deque`` in post order from the moment a second receive is posted
  under the same key.  The key is deleted the moment its last record
  is popped, so a drained pattern costs nothing.
* **unexpected messages** -- each arrival is filed once, under its
  exact key, as an ``(arrival number, envelope)`` pair; an emptied key
  is deleted.  An exact post pops its own key's head.  A wildcard post
  or :meth:`probe` scans the heads of the waiting keys and takes the
  matching one with the smallest arrival number: within a key the
  arrivals are in order, so that head is the oldest matching arrival.
  The scan costs O(keys waiting); wildcard posts are rare (the XOR
  rebuild's ``ANY_SOURCE`` gather) and find few keys waiting.

A posted receive whose waiter died (killed process, an
:meth:`~repro.simt.kernel.Event.cancel`, an externally failed event)
is pruned when it reaches a candidate head during a delivery.  Nothing
sweeps: only a killed process cancels a receive, and its context is
never posted to again.

The linear-scan engine is the conformance oracle of
``tests/test_matching_conformance.py`` and lives beside it.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Deque, Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.net.message import Envelope
from repro.simt.kernel import _PENDING, Event, Simulator

__all__ = [
    "MatchingEngine",
    "ANY_SOURCE",
    "ANY_TAG",
    "RecvCancelled",
]

ANY_SOURCE = -1
ANY_TAG = -1

_BucketKey = Tuple[int, int, int]  # (comm_id, source, tag)

_NO_ARRIVALS: Mapping = MappingProxyType({})


class RecvCancelled(Exception):
    """A posted receive was cancelled by a recovery reset."""


class _PostedRecv(Event):
    """One receive, and the event its match completes: ``post`` builds
    it with no Python frame and fills Event's slots and its own, and
    the match completes it in place, with ``Event.succeed``'s stores
    and push (``simt.kernel`` has the rule for such records)."""

    __slots__ = ("source", "tag", "seq", "comm")
    __init__ = object.__init__

    @property
    def live(self) -> bool:
        return self._callbacks is not None and self._value is _PENDING

    def _what(self) -> str:
        return (f"posted receive (source {self.source}, tag {self.tag}, "
                f"comm {self.comm})")


class MatchingEngine:
    """Per-process matching state: posted receives + unexpected queue.

    Slotted, one per rank context."""

    __slots__ = ("sim", "match_sink", "_posted", "_unexpected", "_post_seq",
                 "_wild_posted", "delivered", "matched_unexpected",
                 "matched_posted", "pruned_dead", "cancelled_total",
                 "purged_total")

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: optional observer called as ``match_sink(source, tag, env)``
        #: with the *posted pattern* and the envelope, just before each
        #: match fires.  The message-logging recovery plane uses it to
        #: track consumption and to record wildcard-match determinants.
        self.match_sink = None
        self._posted: Dict[
            _BucketKey, Union[_PostedRecv, Deque[_PostedRecv]]
        ] = {}
        #: exact key -> its waiting ``(arrival number, envelope)`` pairs;
        #: until the first arrival is filed, a read-only mapping shared
        #: by every engine, so one whose receives are always posted
        #: first carries no empty dict
        self._unexpected: Mapping[
            _BucketKey, Deque[Tuple[int, Envelope]]
        ] = _NO_ARRIVALS
        self._post_seq = 0
        #: wildcard receives filed in ``_posted``; while 0 a delivery
        #: consults the exact bucket alone
        self._wild_posted = 0
        #: observability counters
        self.delivered = 0
        self.matched_unexpected = 0
        self.matched_posted = 0
        #: dead posted receives pruned during delivery matching
        self.pruned_dead = 0
        #: lifetime totals across every recovery reset
        self.cancelled_total = 0
        self.purged_total = 0

    # -- receive side -----------------------------------------------------
    def post(self, source: int, tag: int, comm_id: int) -> Event:
        """Post a receive; the event fires with the matching Envelope."""
        rec = _PostedRecv()
        rec.sim = sim = self.sim
        rec._callbacks = ()
        rec._value = _PENDING
        rec._ok = None
        rec._processed = False
        rec._cancelled = False
        rec.source = source
        rec.tag = tag
        rec.comm = comm_id
        key = (comm_id, source, tag)
        wild = source == ANY_SOURCE or tag == ANY_TAG
        # First look in the unexpected queue (oldest first: FIFO), and
        # not at all while no arrival waits.
        unexpected = self._unexpected
        if unexpected:
            found = self._oldest(comm_id, source, tag) if wild else key
            dq = unexpected.get(found)
            if dq is not None:
                env = dq.popleft()[1]
                if not dq:
                    del unexpected[found]
                self.matched_unexpected += 1
                if self.match_sink is not None:
                    self.match_sink(source, tag, env)
                # Event.succeed, in place: the receive is fresh
                rec._ok = True
                rec._value = env
                sim._seq += 1
                sim._nowq.append(rec)
                return rec
        rec.seq = self._post_seq
        self._post_seq += 1
        if wild:
            self._wild_posted += 1
        posted = self._posted
        bucket = posted.get(key)
        if bucket is None:
            posted[key] = rec
        elif bucket.__class__ is _PostedRecv:
            posted[key] = deque((bucket, rec))
        else:
            bucket.append(rec)
        return rec

    def probe(self, source: int, tag: int, comm_id: int) -> Optional[Envelope]:
        """Non-destructive check of the unexpected queue (MPI_Iprobe)."""
        dq = self._unexpected.get(self._oldest(comm_id, source, tag))
        return None if dq is None else dq[0][1]

    def _oldest(self, comm_id: int, source: int, tag: int):
        """The key of the oldest waiting arrival the pattern matches, or
        None: the matching exact head with the smallest arrival
        number."""
        best = None
        best_n = 0
        for key, dq in self._unexpected.items():
            if (key[0] == comm_id
                    and (source == ANY_SOURCE or key[1] == source)
                    and (tag == ANY_TAG or key[2] == tag)
                    and (best is None or dq[0][0] < best_n)):
                best = key
                best_n = dq[0][0]
        return best

    # -- delivery side ------------------------------------------------------
    def deliver(self, env: Envelope) -> None:
        """An envelope arrived from the transport."""
        self.delivered += 1
        comm_id, src, tag = env.comm_id, env.src, env.tag
        key = (comm_id, src, tag)
        if self._wild_posted:
            keys = (
                key,
                (comm_id, src, ANY_TAG),
                (comm_id, ANY_SOURCE, tag),
                (comm_id, ANY_SOURCE, ANY_TAG),
            )
        else:
            keys = (key,)
        posted = self._posted
        # Walk matching posted receives in post order (= ascending seq
        # across the candidate bucket heads), pruning dead entries as
        # they are encountered, until a live one claims the envelope --
        # exactly the linear scan's semantics.
        while True:
            best_key = best = None
            best_seq = -1
            for cand in keys:
                bucket = posted.get(cand)
                if bucket is None:
                    continue
                head = bucket if bucket.__class__ is _PostedRecv else bucket[0]
                if best is None or head.seq < best_seq:
                    best_key = cand
                    best = bucket
                    best_seq = head.seq
            if best is None:
                break
            if best.__class__ is _PostedRecv:
                rec = best
                del posted[best_key]
            else:
                rec = best.popleft()
                if not best:
                    del posted[best_key]
            if best_key is not key:
                self._wild_posted -= 1
            if rec._callbacks is not None and rec._value is _PENDING:
                self.matched_posted += 1
                if self.match_sink is not None:
                    self.match_sink(rec.source, rec.tag, env)
                # Event.succeed, in place: live means neither triggered
                # nor cancelled
                rec._ok = True
                rec._value = env
                self.sim._seq += 1
                self.sim._nowq.append(rec)
                return
            # The waiter died (killed process / already-cancelled
            # event): prune the entry and keep walking -- a *live*
            # receive with a later seq may also match, and must not be
            # shadowed by the corpse.
            self.pruned_dead += 1
        unexpected = self._unexpected
        if unexpected is _NO_ARRIVALS:
            unexpected = self._unexpected = {}
        dq = unexpected.get(key)
        if dq is None:
            unexpected[key] = deque(((self.delivered, env),))
        else:
            dq.append((self.delivered, env))

    # -- recovery ------------------------------------------------------------
    def reset(self) -> Tuple[int, int]:
        """Cancel all posted receives and purge unexpected messages.

        Returns ``(cancelled, purged)`` counts.
        """
        live = [
            rec
            for bucket in self._posted.values()
            for rec in (
                (bucket,) if bucket.__class__ is _PostedRecv else bucket
            )
            if rec.live
        ]
        live.sort(key=lambda rec: rec.seq)  # fail in post order
        for rec in live:
            rec.fail(RecvCancelled())
        cancelled = len(live)
        self._posted.clear()
        self._wild_posted = 0
        purged = 0
        if self._unexpected:
            purged = sum(map(len, self._unexpected.values()))
            self._unexpected.clear()
        self.cancelled_total += cancelled
        self.purged_total += purged
        return cancelled, purged

    # -- introspection --------------------------------------------------------
    def _iter_posted(self) -> Iterator[_PostedRecv]:
        for bucket in self._posted.values():
            if bucket.__class__ is _PostedRecv:
                yield bucket
            else:
                yield from bucket

    @property
    def unexpected_count(self) -> int:
        return sum(map(len, self._unexpected.values()))

    @property
    def posted_count(self) -> int:
        return sum(1 for _rec in self._iter_posted())

    @property
    def pending_posted(self) -> int:
        """Posted receives still waiting on a live event -- the ones a
        finished rank must have drained (chaos invariant feed)."""
        return sum(1 for rec in self._iter_posted() if rec.live)
