"""MPI-style message matching.

Incoming envelopes are matched against posted receives on
``(source, tag)`` with wildcards, FIFO within each matching pair --
the non-overtaking rule MPI guarantees and applications rely on.
Unmatched arrivals wait in the unexpected-message queue.

On FMI recovery the engine is :meth:`reset`: posted receives are
cancelled (their events fail with :class:`RecvCancelled`) and
unexpected messages from the old epoch are purged.

Index layout (the hot-path rewrite)
-----------------------------------

Both queues are hash-bucket indexes keyed on ``(comm_id, source,
tag)``; wildcard patterns use :data:`ANY_SOURCE` / :data:`ANY_TAG` in
the key, so wildcard receives live in *side-lists* next to the exact
buckets:

* **posted receives** -- each posted receive sits in exactly one
  bucket: its own pattern.  A delivery consults at most four buckets
  (exact, source-wildcard, tag-wildcard, both-wildcard) and takes the
  live head with the smallest post sequence number -- byte-identical
  match order to a linear scan of a single deque, at O(1) per message
  instead of O(posted).  A bucket has two shapes: the bare
  ``_PostedRecv`` while it holds one receive -- the common case, one
  waiting receive per pattern per rank -- and a ``deque`` in post
  order from the moment a second receive is posted under the same key
  (a sweep that leaves one record stores it bare again).  The bucket
  key is deleted the moment its last record is popped, so a drained
  pattern costs nothing.
* **unexpected messages** -- each arrival is appended to all four
  buckets it could be claimed under.  A posted receive consults
  exactly one bucket: its own pattern.  Claiming an envelope marks it
  *taken*; the stale aliases in sibling buckets are skipped (and
  popped) when they surface at a bucket head.
* **the engine probes what was posted** -- until its first wildcard
  ``post`` / ``probe`` no wildcard-keyed bucket can hold anything, so
  a delivery consults, and an unexpected arrival is filed under, the
  exact key alone and a claim leaves no alias behind.  The first
  wildcard pattern files the waiting arrivals under their three
  wildcard keys in arrival order, once, and the four-bucket path runs
  from then on (until a :meth:`reset` empties both queues).

Dead entries -- posted receives whose waiter died (killed process,
:meth:`~repro.simt.kernel.Event.cancel`, an externally failed event)
and taken unexpected aliases -- are swept lazily: they are popped when
they reach a bucket head during matching, and a full compaction runs
once enough cancellations/claims have accumulated (a cancelled receive
reports in to its ``engine``).  The compaction only drops dead
entries, so it can never change match order.

The linear-scan engine this replaced is the conformance oracle of
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

#: full compactions run once this many dead/taken entries accumulated
_SWEEP_THRESHOLD = 64

_BucketKey = Tuple[int, int, int]  # (comm_id, source, tag)

_NO_ARRIVALS: Mapping = MappingProxyType({})


class RecvCancelled(Exception):
    """A posted receive was cancelled by a recovery reset."""


class _PostedRecv(Event):
    """One receive, and the event its match completes: ``post`` builds
    it with no Python frame and fills Event's slots and its own
    (``simt.kernel`` has the rule for such records).  ``engine`` is
    the engine that posted it, which a cancel reports to."""

    __slots__ = ("source", "tag", "seq", "engine")
    __init__ = object.__init__

    @property
    def live(self) -> bool:
        return self._callbacks is not None and self._value is _PENDING

    def cancel(self) -> bool:
        """Withdraw the receive, and count it as a dead entry of its
        engine (the lazy sweep's debt)."""
        if not Event.cancel(self):
            return False
        self.engine._note_debt()
        return True

    def _what(self) -> str:
        # cold (a stalled run's report): the comm is the key of the
        # bucket the record waits in, while it waits in one
        comm = ""
        for (comm_id, _source, _tag), bucket in self.engine._posted.items():
            if bucket is self or (bucket.__class__ is not _PostedRecv
                                  and self in bucket):
                comm = f", comm {comm_id}"
                break
        return f"posted receive (source {self.source}, tag {self.tag}{comm})"


class _Unexpected:
    """One arrived envelope, shared between its index buckets;
    ``deliver`` fills the slots.  ``seq`` is its arrival order, what
    the wildcard buckets are built in."""

    __slots__ = ("env", "taken", "seq")


class MatchingEngine:
    """Per-process matching state: posted receives + unexpected queue.

    Slotted, one per rank context."""

    __slots__ = ("sim", "match_sink", "_posted", "_unexpected", "_post_seq",
                 "_unexpected_live", "_wild", "_sweep_debt", "_sweep_at",
                 "delivered", "matched_unexpected", "matched_posted",
                 "pruned_dead", "swept_dead", "cancelled_total",
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
        #: the unexpected index until the first arrival is filed: a
        #: read-only mapping shared by every engine, so one whose
        #: receives are always posted first carries no empty dict
        self._unexpected: Mapping[_BucketKey, Deque[_Unexpected]] = _NO_ARRIVALS
        self._post_seq = 0
        #: arrivals waiting unclaimed; while 0 a post looks up nothing
        self._unexpected_live = 0
        #: a wildcard pattern has been posted or probed: the three
        #: wildcard keys of every arrival are in use
        self._wild = False
        #: dead/taken entries accumulated since the last compaction;
        #: a compaction runs when the debt reaches ``_sweep_at``, which
        #: is re-armed to the surviving entry count so sweeps stay
        #: amortised O(1) per operation at any queue depth
        self._sweep_debt = 0
        self._sweep_at = _SWEEP_THRESHOLD
        #: observability counters
        self.delivered = 0
        self.matched_unexpected = 0
        self.matched_posted = 0
        #: dead posted receives pruned during delivery matching
        self.pruned_dead = 0
        #: dead/taken entries removed by background compactions
        self.swept_dead = 0
        #: lifetime totals across every recovery reset
        self.cancelled_total = 0
        self.purged_total = 0

    # -- receive side -----------------------------------------------------
    def post(self, source: int, tag: int, comm_id: int) -> Event:
        """Post a receive; the event fires with the matching Envelope."""
        rec = _PostedRecv()
        rec.sim = self.sim
        rec._callbacks = ()
        rec._value = _PENDING
        rec._ok = None
        rec._processed = False
        rec._cancelled = False
        rec.engine = self
        rec.source = source
        rec.tag = tag
        if not self._wild and (source == ANY_SOURCE or tag == ANY_TAG):
            self._open_wildcards()
        # First look in the unexpected queue (oldest first: FIFO).  A
        # post consults exactly one bucket -- its own pattern -- so no
        # probe object and no scan are needed; and none at all while no
        # arrival waits (taken aliases left behind are swept as ever).
        key = (comm_id, source, tag)
        if self._unexpected_live:
            dq = self._unexpected.get(key)
            if dq is not None:
                while dq and dq[0].taken:
                    dq.popleft()
                if dq:
                    arrived = dq.popleft()
                    arrived.taken = True
                    self._unexpected_live -= 1
                    if self._wild:  # three stale aliases stay behind
                        self._note_debt()
                    self.matched_unexpected += 1
                    if self.match_sink is not None:
                        self.match_sink(source, tag, arrived.env)
                    rec.succeed(arrived.env)
                    return rec
                del self._unexpected[key]
        rec.seq = self._post_seq
        self._post_seq += 1
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
        if not self._wild and (source == ANY_SOURCE or tag == ANY_TAG):
            self._open_wildcards()
        dq = self._unexpected.get((comm_id, source, tag))
        if dq is None:
            return None
        while dq and dq[0].taken:
            dq.popleft()
        if not dq:
            del self._unexpected[(comm_id, source, tag)]
            return None
        return dq[0].env

    # -- delivery side ------------------------------------------------------
    def deliver(self, env: Envelope) -> None:
        """An envelope arrived from the transport."""
        self.delivered += 1
        comm_id, src, tag = env.comm_id, env.src, env.tag
        if self._wild:
            keys = (
                (comm_id, src, tag),
                (comm_id, src, ANY_TAG),
                (comm_id, ANY_SOURCE, tag),
                (comm_id, ANY_SOURCE, ANY_TAG),
            )
        else:
            keys = ((comm_id, src, tag),)
        posted = self._posted
        # Walk matching posted receives in post order (= ascending seq
        # across the candidate bucket heads), pruning dead entries as
        # they are encountered, until a live one claims the envelope --
        # exactly the linear scan's semantics.
        while True:
            best_key = best = None
            best_seq = -1
            for key in keys:
                bucket = posted.get(key)
                if bucket is None:
                    continue
                head = bucket if bucket.__class__ is _PostedRecv else bucket[0]
                if best is None or head.seq < best_seq:
                    best_key = key
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
            if rec._callbacks is not None and rec._value is _PENDING:
                self.matched_posted += 1
                if self.match_sink is not None:
                    self.match_sink(rec.source, rec.tag, env)
                rec.succeed(env)
                return
            # The waiter died (killed process / already-cancelled
            # event): prune the entry and keep walking -- a *live*
            # receive with a later seq may also match, and must not be
            # shadowed by the corpse.
            self.pruned_dead += 1
        rec = _Unexpected()
        rec.env = env
        rec.taken = False
        rec.seq = self.delivered
        self._file(rec, keys)
        self._unexpected_live += 1

    def _file(self, rec: _Unexpected, keys) -> None:
        unexpected = self._unexpected
        if unexpected is _NO_ARRIVALS:
            unexpected = self._unexpected = {}
        for key in keys:
            dq = unexpected.get(key)
            if dq is None:
                dq = unexpected[key] = deque()
            dq.append(rec)

    def _open_wildcards(self) -> None:
        """The first wildcard pattern: file what is waiting under its
        wildcard keys too, in arrival order.  Nothing waiting has been
        claimed -- a claim that leaves no alias pops its only entry --
        and no posted receive needs moving: each sits under its own
        pattern, and none of those held a wildcard."""
        self._wild = True
        waiting = sorted(
            (rec for dq in self._unexpected.values() for rec in dq),
            key=lambda rec: rec.seq,
        )
        for rec in waiting:
            env = rec.env
            comm_id, src, tag = env.comm_id, env.src, env.tag
            self._file(rec, (
                (comm_id, src, ANY_TAG),
                (comm_id, ANY_SOURCE, tag),
                (comm_id, ANY_SOURCE, ANY_TAG),
            ))

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
        purged = self._unexpected_live
        if self._unexpected:
            self._unexpected.clear()
        self._unexpected_live = 0
        self._wild = False  # both queues are empty: nothing is aliased
        self._sweep_debt = 0
        self.cancelled_total += cancelled
        self.purged_total += purged
        return cancelled, purged

    # -- lazy sweeping --------------------------------------------------------
    def _note_debt(self) -> None:
        """One more dead entry (a claimed arrival's aliases, or a
        cancelled posted receive)."""
        self._sweep_debt += 1
        if self._sweep_debt >= self._sweep_at:
            self._sweep()

    def _sweep(self) -> None:
        """Compact every bucket: drop dead receives and taken aliases.

        Removal order is irrelevant to matching semantics -- only dead
        entries go -- so the sweep can run at any point between
        deliveries.
        """
        self._sweep_debt = 0
        surviving = 0
        posted = self._posted
        for key in list(posted):
            bucket = posted[key]
            if bucket.__class__ is _PostedRecv:
                bucket = (bucket,)
            kept = [rec for rec in bucket if rec.live]
            if len(kept) != len(bucket):
                self.swept_dead += len(bucket) - len(kept)
                if not kept:
                    del posted[key]
                    continue
                posted[key] = kept[0] if len(kept) == 1 else deque(kept)
            surviving += len(kept)
        for key in list(self._unexpected):
            dq = self._unexpected[key]
            kept = [rec for rec in dq if not rec.taken]
            if len(kept) != len(dq):
                if kept:
                    self._unexpected[key] = deque(kept)
                else:
                    del self._unexpected[key]
                    continue
            surviving += len(kept)
        self._sweep_at = max(_SWEEP_THRESHOLD, surviving)

    # -- introspection --------------------------------------------------------
    def _iter_posted(self) -> Iterator[_PostedRecv]:
        for bucket in self._posted.values():
            if bucket.__class__ is _PostedRecv:
                yield bucket
            else:
                yield from bucket

    @property
    def unexpected_count(self) -> int:
        return self._unexpected_live

    @property
    def posted_count(self) -> int:
        return sum(1 for _rec in self._iter_posted())

    @property
    def pending_posted(self) -> int:
        """Posted receives still waiting on a live event -- the ones a
        finished rank must have drained (chaos invariant feed)."""
        return sum(1 for rec in self._iter_posted() if rec.live)

