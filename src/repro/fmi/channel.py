"""The channel layer both lseq-stamping recovery planes are built on.

Message logging (:mod:`repro.fmi.msglog`) and replication
(:mod:`repro.fmi.replication`) rest on the same channel discipline:
every send is stamped ``lseq = (src, dst, n)`` from a per-destination
counter that a re-executing sender *reproduces*, every receiver keeps
the first arrival per ``(src, n)``, and wildcard matches are recorded
as determinants so a re-execution (or a follower copy) consumes the
same messages in the same order.  :class:`ChannelState` is that state
for one endpoint -- a world rank under logging (it outlives the rank's
processes), a network context under replication (one per copy).

:class:`ChannelPlane` is the recovery family both planes subclass.  It
keeps what they share -- per-rank determinant lists and snapshot
windows, and the dedup / determinant counters -- and does once what
they do alike: the H1 wiring of a context's receive filter and match
sink, snapshot filing at a rank checkpoint, and the determinant rule.
Under that rule a channel *replays* while its cursor is behind its
rank's determinant list; once caught up, its wildcard matches are
recorded and advance the cursor; a post whose pattern disagrees with
the record is counted and skips the cursor to the end.

Each plane keeps only its protocol, including its own per-message
hooks (``on_send`` / ``accept`` / ``sink``), which read and write the
:class:`ChannelState` fields directly; the shared methods here are off
the per-message path.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.fmi.checkpoint import CheckpointEngine
from repro.fmi.runtime import RecoveryFamily

__all__ = ["ChannelPlane", "ChannelState", "ChannelSnapshot", "Determinant"]


class Determinant:
    """One recorded wildcard match outcome (receiver-side)."""

    __slots__ = ("source", "tag", "comm_id", "env_src", "env_tag", "lseq")

    def __init__(self, source, tag, comm_id, env_src, env_tag, lseq):
        self.source = source      # posted pattern (may be ANY_SOURCE)
        self.tag = tag            # posted pattern (may be ANY_TAG)
        self.comm_id = comm_id
        self.env_src = env_src    # who actually matched
        self.env_tag = env_tag
        self.lseq = lseq          # identity of the matched message


class ChannelSnapshot(NamedTuple):
    """One endpoint's channel state at a completed checkpoint."""

    send_seq: Dict[int, int]        # dst world rank -> next channel seq
    consumed: Set[Tuple[int, int]]  # {(src, n)} consumed by the execution
    det_len: int                    # determinants recorded so far


class ChannelState:
    """Send counters, dedup sets and determinant cursor of one endpoint."""

    __slots__ = ("send_seq", "seen", "consumed", "det_cursor")

    def __init__(self):
        #: dst world rank -> next channel sequence number
        self.send_seq: Dict[int, int] = {}
        #: {(src, n)} *delivered* into the endpoint's live matching
        #: engine (the exact-once receive filter)
        self.seen: Set[Tuple[int, int]] = set()
        #: {(src, n)} *consumed* (matched) by its execution -- the
        #: snapshot/rewind basis.  Delivered-but-unconsumed messages
        #: must be re-deliverable after a rollback, so the two sets are
        #: tracked separately.
        self.consumed: Set[Tuple[int, int]] = set()
        #: position in the rank's determinant list: behind its end, the
        #: endpoint replays; at its end, it records
        self.det_cursor = 0

    def snapshot(self, window: Dict[int, ChannelSnapshot], dataset_id: int,
                 det_len: int) -> None:
        """File the state at checkpoint ``dataset_id`` into ``window``
        (dataset id -> snapshot), retained in step with the checkpoint
        engine: a snapshot is only useful while its dataset can still
        be restored."""
        window[dataset_id] = ChannelSnapshot(
            dict(self.send_seq), set(self.consumed), det_len
        )
        while len(window) > CheckpointEngine.KEEP:
            del window[min(window)]

    def load(self, snap: Optional[ChannelSnapshot]) -> None:
        """Rewind to ``snap`` (None: the empty state before any
        checkpoint) and rebase the delivered set onto it."""
        if snap is None:
            self.send_seq = {}
            self.consumed = set()
            self.det_cursor = 0
        else:
            self.send_seq = dict(snap.send_seq)
            self.consumed = set(snap.consumed)
            self.det_cursor = snap.det_len
        self.rebase_seen()

    def rebase_seen(self) -> None:
        """Forget deliveries the execution has not consumed, so they
        can be delivered again."""
        self.seen = set(self.consumed)


class ChannelPlane(RecoveryFamily):
    """The state and the rules both lseq planes share.

    Subclasses provide ``_make_recv_filter(chan)`` and
    ``_make_sink(fproc, chan)``: the closures :meth:`_wire` installs.
    """

    #: prefix and category of the plane's trace events
    trace_cat = ""

    def __init__(self, job):
        super().__init__(job)
        #: rank -> recorded wildcard-match determinants, in match order
        self.dets: Dict[int, List[Determinant]] = {}
        #: rank -> {dataset id -> channel snapshot at that checkpoint},
        #: the retained window
        self.snapshots: Dict[int, Dict[int, ChannelSnapshot]] = {}

    def _wire(self, fproc, chan: ChannelState) -> None:
        """H1: hook ``fproc``'s context up to ``chan`` -- the receive
        filter, the match sink -- and drop whatever it had queued."""
        ctx = fproc.ctx
        ctx.matching.match_sink = self._make_sink(fproc, chan)
        ctx.recv_filter = self._make_recv_filter(chan)
        ctx.matching.reset()

    def _file_snapshot(self, rank: int, chan: ChannelState,
                       dataset_id: int) -> None:
        """``rank`` completed checkpoint ``dataset_id``: file ``chan``
        into its window (the rewind or standby-seed target)."""
        chan.snapshot(self.snapshots.setdefault(rank, {}), dataset_id,
                      len(self.dets.get(rank, ())))

    # -- the determinant rule ------------------------------------------------
    def _record(self, rank: int, chan: ChannelState, source: int, tag: int,
                env) -> None:
        """A wildcard post matched ``env``: record it if ``chan`` is
        caught up (a replaying channel's match is already on record)."""
        dets = self.dets.setdefault(rank, [])
        if chan.det_cursor < len(dets):
            return
        dets.append(Determinant(source, tag, env.comm_id, env.src, env.tag,
                                env.lseq))
        chan.det_cursor = len(dets)

    def _next_det(self, rank: int, chan: ChannelState, source: int, tag: int,
                  comm_id: int) -> Optional[Determinant]:
        """The recorded match a wildcard post replays, advancing the
        cursor; None when ``chan`` is caught up.  A post whose pattern
        disagrees with the record is traced, and the cursor skips to
        the end: replay degrades to free order."""
        dets = self.dets.get(rank, ())
        cursor = chan.det_cursor
        if cursor >= len(dets):
            return None
        det = dets[cursor]
        if (det.source, det.tag, det.comm_id) != (source, tag, comm_id):
            chan.det_cursor = len(dets)
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    f"{self.trace_cat}.det.mismatch", self.trace_cat,
                    rank=rank, posted=(source, tag, comm_id),
                    recorded=(det.source, det.tag, det.comm_id),
                )
            return None
        chan.det_cursor = cursor + 1
        return det
