"""Per-endpoint channel state under both lseq-stamping recovery planes.

Message logging (:mod:`repro.fmi.msglog`) and replication
(:mod:`repro.fmi.replication`) rest on the same channel discipline:
every send is stamped ``lseq = (src, dst, n)`` from a per-destination
counter that a re-executing sender *reproduces*, every receiver keeps
the first arrival per ``(src, n)``, and wildcard matches are recorded
as determinants so a re-execution (or a follower copy) consumes the
same messages in the same order.  :class:`ChannelState` is that state
for one endpoint -- a world rank under logging (it outlives the rank's
processes), a network context under replication (one per copy).

The planes' per-message hooks (``on_send`` / ``accept`` / ``sink``)
read and write these fields directly; only the per-checkpoint
operations are methods.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Set, Tuple

from repro.fmi.checkpoint import CheckpointEngine

__all__ = ["ChannelState", "ChannelSnapshot", "Determinant"]


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

    __slots__ = ("send_seq", "seen", "consumed", "det_cursor", "det_limit")

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
        #: replay position into the endpoint's determinant list
        self.det_cursor = 0
        #: where a logged re-execution stops replaying determinants and
        #: records again (replication replays whatever the lead has
        #: recorded, so it leaves this at 0)
        self.det_limit = 0

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
