"""Sender-based message logging: the partial-rollback recovery plane.

Selected with ``FmiConfig(recovery="logged")``.  The default
(``"global"``) plane rolls *every* rank back to the last coordinated
checkpoint on any failure -- the paper's behaviour.  This plane instead
keeps survivors running and rolls back only the restarted ranks, the
protocol family of Dichev & Nikolopoulos (*Implementing Efficient
Message Logging Protocols as MPI Application Extensions*): sender-based
payload logs plus receiver determinants give piecewise-deterministic
replay, and a per-channel logical sequence number gives exact-once
delivery across the rollback.

The plane is a simulator-side oracle object (one per job), which is
exactly where a real implementation keeps this state too: the log lives
in the *sender's* memory and the determinants in the *receiver's*, and
neither is lost when some other rank dies.  Three mechanisms:

**Payload logs.**  Every send crossing a recovery unit (a node slot:
the set of ranks that die together) is appended to the sender's
in-memory log together with its payload copy and a per-channel logical
sequence number ``lseq = (src, dst, n)``.  ``n`` is *reproduced* by a
re-executing sender (an envelope itself is a fresh object per
transmission), so the same logical message always carries the same
identity.  Logs are garbage-collected when every live rank's retained
checkpoint window has advanced past an entry (:meth:`_gc`).

**Receiver determinants.**  The matching engine reports every match to
:attr:`~repro.net.matching.MatchingEngine.match_sink`; wildcard
(``ANY_SOURCE``/``ANY_TAG``) outcomes are recorded as determinants.  A
recovering rank re-posts its wildcard receives as *exact* receives in
the recorded order, so replayed messages match in the original order
even though replay interleaves senders arbitrarily.

**Partial restore.**  When a restarted rank reaches ``FMI_Loop`` it
runs :meth:`RecoveryPlane.partial_restore` instead of the global
``CheckpointEngine.restore``: a *sidecar* ensemble of per-member
network contexts drives ``CheckpointEngine.rebuild_missing`` over the
XOR group's live storages (survivor application state is untouched --
no world agreement, no pruning), the rank's plane state is rewound to
the snapshot taken at that checkpoint, and each surviving sender
replays its logged messages destined to the rank, serialized per
sender to preserve channel FIFO order.  Survivors meanwhile just block
on their pending receives from the restarted rank; when its
re-execution reaches the failure point it re-sends them, and re-sends
of messages a survivor already consumed are suppressed by the
context's :attr:`~repro.net.transport.NetContext.recv_filter` (the
``lseq`` dedup).  The epoch filter is *not* used: in logged mode
every context stays at epoch 0 (there is no global epoch to advance
past), and exact-once delivery rests entirely on the lseq sets.

Trace events (``mlog.*``): ``mlog.log`` (an entry appended),
``mlog.gc``, ``mlog.restore.begin`` / ``mlog.restore`` (span),
``mlog.rewind``, ``mlog.replay.begin``, ``mlog.replay`` (one message),
``mlog.replay.done``, ``mlog.det.mismatch``.  A re-send the lseq filter
suppresses is the transport's ``net.drop_lseq_dup``.
The no-orphans invariant (:class:`repro.chaos.invariants.TraceInvariants`)
reads ``mlog.log`` / ``mlog.rewind`` / ``net.recv``.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.fmi.channel import ChannelPlane, ChannelState
from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage
from repro.fmi.errors import UnrecoverableFailure
from repro.fmi.redundancy import make_scheme
from repro.mpi.api import MpiApi
from repro.mpi.datatypes import snapshot as _snapshot
from repro.net.matching import ANY_SOURCE, ANY_TAG
from repro.net.message import Envelope

__all__ = ["RecoveryPlane", "LogEntry"]


class LogEntry:
    """One logged cross-slot message (sender-side)."""

    __slots__ = (
        "dst", "env_src", "env_dst", "tag", "comm_id", "n", "nbytes",
        "data", "ckpt_tag",
    )

    def __init__(self, dst, env_src, env_dst, tag, comm_id, n, nbytes,
                 data, ckpt_tag):
        self.dst = dst            # destination world rank
        self.env_src = env_src    # comm-relative source rank
        self.env_dst = env_dst    # comm-relative destination rank
        self.tag = tag
        self.comm_id = comm_id
        self.n = n                # channel sequence number (lseq[2])
        self.nbytes = nbytes
        self.data = data          # payload copy
        self.ckpt_tag = ckpt_tag  # sender's last completed dataset at send


class RecoveryPlane(ChannelPlane):
    """Job-wide message-logging state + the partial-restore driver.

    Determinants and snapshot windows are keyed by world rank; a
    rank's oldest retained snapshot is its GC floor."""

    hop_fidelity = "msglog"
    trace_cat = "mlog"

    def __init__(self, job):
        super().__init__(job)
        #: world rank -> its channel state (outlives the rank's processes)
        self.channels: List[ChannelState] = [
            ChannelState() for _ in range(job.num_ranks)
        ]
        #: sender world rank -> its payload log (FIFO per channel)
        self.logs: Dict[int, List[LogEntry]] = {}
        #: rank -> last completed dataset id (stamped on log entries)
        self.last_ckpt: Dict[int, int] = {}
        #: a lower bound on every logged entry's ``ckpt_tag`` (``inf``
        #: while nothing was logged): no GC floor at or below it can
        #: drop an entry
        self.oldest_tag: float = math.inf
        #: ranks currently inside partial_restore
        self.recovering: Set[int] = set()

    # -- process wiring ----------------------------------------------------
    def on_h1(self, fproc) -> None:
        # Partial rollback never raises the envelope epoch: survivor
        # traffic stays valid across the recovery, and exact-once
        # delivery is the lseq filter instead.
        self._wire(fproc, self.channels[fproc.rank])
        self.job.register_endpoint(fproc.rank, fproc.ctx)

    def _boot_epoch(self) -> Optional[int]:
        """The epoch whose world rendezvous first completed; None while
        the job boots.  A failure before then is a plain restart: no
        rank has state to keep or an endpoint its peers know, so every
        rank unwinds and boots world-wide, as under global rollback."""
        return next(iter(self.job.recovered_at), None)

    def rendezvous_scope(self, fproc):
        job = self.job
        if self._boot_epoch() in (None, job.epoch):
            return super().rendezvous_scope(fproc)
        # Only the restarted recovery unit synchronises: the failed
        # node slot's own ranks.
        slot = job.slot_of_rank(fproc.rank)
        return (job.epoch, slot), len(self.unfinished_ranks(slot)), job.ppn

    def overlay_epoch(self, fproc) -> int:
        # Survivors never re-join, so a replacement must join the
        # overlay the job booted in to reach them.
        boot = self._boot_epoch()
        return self.job.epoch if boot is None else boot

    def restores(self, fproc) -> bool:
        # Only a replacement lost its state; a survivor that unwound
        # while the job booted enters H3 for the first time.
        return fproc.incarnation > 0

    def absorb_notification(self, fproc, generation: int) -> bool:
        # Survivors absorb once the job has booted: their state is
        # never rolled back, and the lseq dedup (not the epoch filter)
        # guards their channels.  A rank caught *mid-restore* must
        # unwind and retry, though: its sidecar rebuild ensemble may
        # include the newly dead node.
        return (self._boot_epoch() is not None
                and fproc.rank not in self.recovering)

    # -- send path ---------------------------------------------------------
    def on_send(self, src: int, dst: int, env: Envelope, ctx=None) -> None:
        """Stamp ``env`` with its channel lseq; log it if cross-slot."""
        send_seq = self.channels[src].send_seq
        n = send_seq.get(dst, 0)
        send_seq[dst] = n + 1
        env.lseq = (src, dst, n)
        job = self.job
        if job.slot_of_rank(src) == job.slot_of_rank(dst):
            # Same recovery unit: sender and receiver die together, and
            # a restarted pair re-executes both ends -- nothing to log.
            return
        ckpt_tag = self.last_ckpt.get(src, -1)
        if ckpt_tag < self.oldest_tag:
            self.oldest_tag = ckpt_tag
        entry = LogEntry(
            dst, env.src, env.dst, env.tag, env.comm_id, n, env.nbytes,
            _snapshot(env.data), ckpt_tag,
        )
        self.logs.setdefault(src, []).append(entry)
        sim = self.sim
        if sim.tracer.enabled:
            sim.tracer.instant(
                "mlog.log", "mlog", rank=src, epoch=job.epoch, dst=dst,
                tag=env.tag, n=n, nbytes=env.nbytes, ckpt=entry.ckpt_tag,
            )

    # -- receive path ------------------------------------------------------
    def _make_recv_filter(self, chan: ChannelState):
        """The per-context :attr:`NetContext.recv_filter` closure:
        exact-once per channel lseq."""

        def accept(env: Envelope) -> bool:
            lseq = env.lseq
            key = (lseq[0], lseq[2])
            seen = chan.seen
            if key in seen:
                return False
            seen.add(key)
            return True

        return accept

    def _make_sink(self, fproc, chan: ChannelState):
        """The per-context :attr:`MatchingEngine.match_sink` closure:
        consumption bookkeeping for every match, a determinant for
        every *wildcard* match."""
        rank = fproc.rank

        def sink(source, tag, env):
            lseq = env.lseq
            if lseq is not None:
                chan.consumed.add((lseq[0], lseq[2]))
            if source == ANY_SOURCE or tag == ANY_TAG:
                self._record(rank, chan, source, tag, env)

        return sink

    def post_wildcard(self, fmi_ctx, source: int, tag: int, comm_id: int):
        """Piecewise-deterministic replay: a re-executed wildcard
        receive is rewritten to the *exact* (source, tag) its original
        execution matched, in recorded order, until the determinant
        cursor reaches the failure point; from there it posts natively
        and records again."""
        rank = fmi_ctx.rank
        det = self._next_det(rank, self.channels[rank], source, tag, comm_id)
        if det is None:
            return None
        evt = fmi_ctx.ctx.matching.post(det.env_src, det.env_tag, comm_id)
        self._check_replayed_match(evt, det.lseq, rank)
        return evt

    def _check_replayed_match(self, evt, recorded, rank: int) -> None:
        """Assert a determinant-rewritten post matched the recorded
        message (same channel identity), once it completes."""

        def _check(env) -> None:
            if recorded is not None and getattr(env, "lseq", None) != recorded:
                if self.sim.tracer.enabled:
                    self.sim.tracer.instant(
                        "mlog.det.mismatch", "mlog", rank=rank,
                        expected=recorded, got=getattr(env, "lseq", None),
                    )

        if evt.triggered:
            if evt._ok:
                _check(evt._value)
        else:
            evt.callbacks.append(
                lambda e: _check(e._value) if e._ok else None
            )

    # -- checkpoint bookkeeping -------------------------------------------
    def note_rank_checkpoint(self, rank: int, dataset_id: int, ctx=None) -> None:
        """``rank`` completed checkpoint ``dataset_id``: snapshot its
        channel state (the rewind target) and advance garbage collection."""
        self._file_snapshot(rank, self.channels[rank], dataset_id)
        self.last_ckpt[rank] = dataset_id
        self._gc()

    def _gc(self) -> None:
        """Drop entries no restore can ever need.

        A partial restore targets the newest dataset *common to the
        whole XOR group*, which is always >= the job-wide floor
        ``stable = min over live ranks of their oldest retained
        dataset``.  An entry stamped ``ckpt_tag < stable`` was sent
        before its sender's checkpoint ``stable`` completed; since
        checkpoints are coordinated and the BSP app quiesces its
        traffic at every ``FMI_Loop``, such a message was delivered
        before the receiver's ``stable`` snapshot -- its lseq is inside
        every rewind target's consumed set, so it is never replayed.
        While :attr:`oldest_tag` is at or above ``stable`` no entry can
        go, and no log is rebuilt."""
        job = self.job
        floors: List[int] = []
        for r in range(job.num_ranks):
            if r in job.results:
                continue
            window = self.snapshots.get(r)
            if not window:
                return  # a live rank has no checkpoint yet: keep all
            floors.append(min(window))
        if not floors:
            return
        stable = min(floors)
        if self.oldest_tag >= stable:
            return  # no entry is older than the floor
        self.oldest_tag = stable
        dropped, dropped_bytes = self._trim([
            (src, [e for e in entries if e.ckpt_tag >= stable])
            for src, entries in self.logs.items()
        ])
        if not dropped:
            return
        sim = self.sim
        if sim.tracer.enabled:
            sim.tracer.instant(
                "mlog.gc", "mlog", stable=stable, entries=dropped,
                nbytes=dropped_bytes,
                live=sum(map(len, self.logs.values())),
            )

    def _trim(self, kept_logs) -> Tuple[int, float]:
        """Shorten logs to the ``(src, kept entries)`` pairs given;
        returns the entries and bytes dropped.  The log-trim body of :meth:`_gc` and
        :meth:`_rewind`."""
        logs = self.logs
        dropped = 0
        dropped_bytes = 0.0
        for src, kept in kept_logs:
            entries = logs[src]
            if len(kept) != len(entries):
                dropped += len(entries) - len(kept)
                dropped_bytes += (sum(map(attrgetter("nbytes"), entries))
                                  - sum(map(attrgetter("nbytes"), kept)))
                logs[src] = kept
        return dropped, dropped_bytes

    # -- partial restore ---------------------------------------------------
    def partial_restore(self, fmi_ctx):
        """The logged-mode replacement for ``CheckpointEngine.restore``:
        sidecar rebuild + log replay; no world agreement, survivors
        never enter.

        Runs inside the restarted rank's process (from ``FMI_Loop``).
        Returns ``(meta, payloads)`` like ``restore()``, or None on a
        group-wide cold start."""
        rank = fmi_ctx.rank
        job = self.job
        sim = self.sim
        t0 = sim.now
        self.recovering.add(rank)
        if sim.tracer.enabled:
            sim.tracer.instant(
                "mlog.restore.begin", "mlog", rank=rank,
                node=fmi_ctx.node.id, epoch=job.epoch,
                incarnation=fmi_ctx.fproc.incarnation,
            )
        restored = yield from self._rebuild(fmi_ctx)
        dataset = None if restored is None else restored[0].dataset_id
        self._rewind(rank, dataset, fmi_ctx.ctx.matching)
        msgs, nbytes = yield from self._replay_into(rank)
        self.recovering.discard(rank)
        if sim.tracer.enabled:
            sim.tracer.complete(
                "mlog.restore", "mlog", t0, rank=rank,
                node=fmi_ctx.node.id, epoch=job.epoch,
                dataset=-1 if dataset is None else dataset, replayed=msgs,
            )
            sim.tracer.instant(
                "mlog.replay.done", "mlog", rank=rank, epoch=job.epoch,
                msgs=msgs, nbytes=nbytes,
                dataset=-1 if dataset is None else dataset,
            )
        return restored

    #: the seam's name for it (the perf ledger's entry point is
    #: ``partial_restore``)
    restore = partial_restore

    def _rebuild(self, fmi_ctx):
        """Drive ``CheckpointEngine.rebuild_missing`` over a sidecar
        ensemble: one fresh context per group member, on the member's
        *current* node, against the member's live storage.  Each gets
        a plain :class:`MpiApi` whose ranks are XOR-group *positions*
        (private position->address table, epoch 0): collectives for a
        ``CheckpointEngine`` with no application context touched.

        A member whose task has failed with no replacement yet (a
        second death already reported), or whose replacement has not
        restored yet (``fresh``), is lost just like a restarting one.
        Nothing spawns on a dead member's node: its sidecar stands in
        on this rank's node, with empty storage."""
        job = self.job
        rank_procs = job.rank_procs
        layout = job.xor_layout
        rank = fmi_ctx.rank
        group = layout.group_of(rank)
        members = layout.members(group)
        size = len(members)
        my_pos = members.index(rank)
        dead = {m for m in members if rank_procs[m].task.failed}
        missing = sorted(
            pos for pos, m in enumerate(members)
            if m in self.recovering or m in dead or rank_procs[m].fresh
        )
        transport = job.transport
        ctxs = []
        table: Dict[int, Tuple[int, int]] = {}
        for pos, member in enumerate(members):
            node = (
                fmi_ctx.node if member == rank or member in dead
                else rank_procs[member].node
            )
            ctx = transport.create_context(
                node, label=f"mlog:rebuild:g{group}:p{pos}"
            )
            ctxs.append(ctx)
            table[pos] = ctx.addr
        scheme_name = job.config.redundancy
        try:
            procs = []
            for pos, member in enumerate(members):
                if pos == my_pos:
                    continue
                api = MpiApi(transport, ctxs[pos], pos, size, table)
                storage = (
                    MemoryStorage(ctxs[pos].node) if member in dead
                    else rank_procs[member].storage
                )
                engine = CheckpointEngine(
                    api.world, storage, api.memcpy,
                    scheme=make_scheme(scheme_name),
                )
                procs.append(ctxs[pos].node.spawn(
                    engine.rebuild_missing(missing),
                    name=f"mlog.rebuild[g{group}:p{pos}]",
                ))
            api = MpiApi(transport, ctxs[my_pos], my_pos, size, table)
            engine = CheckpointEngine(
                api.world, fmi_ctx.fproc.storage, api.memcpy,
                scheme=make_scheme(scheme_name),
            )
            mine = yield from engine.rebuild_missing(missing)
            for proc in procs:
                if not proc.triggered:
                    yield proc
                elif not proc._ok:
                    raise proc._value
        finally:
            for ctx in ctxs:
                ctx.close()
        if mine is None and len(missing) == size:
            # Every member lost.  A rank that survives with a committed
            # dataset had its log trimmed at it, so a cold start would
            # wait on receives no log holds any more.
            held = [ds for r, ds in self.last_ckpt.items()
                    if not (rank_procs[r].fresh or rank_procs[r].task.failed)]
            if held:
                raise UnrecoverableFailure(
                    f"{scheme_name} group {group} lost every member (ranks "
                    f"{list(members)}) while dataset {max(held)} survives "
                    f"elsewhere: beyond level-1 repair"
                )
        return mine

    def _rewind(self, rank: int, dataset: Optional[int],
                matching=None) -> None:
        """Reset ``rank``'s plane state to its snapshot at ``dataset``.

        No snapshot for a non-None dataset means the previous
        incarnation died *inside* checkpoint ``dataset`` after its last
        contribution was out but before completing locally (the torn
        tail).  The resume point then coincides with the death point,
        so the live at-death values are already correct and nothing is
        rewound (re-sent lseqs stay unique, consumed collective traffic
        is not replayed).

        ``matching`` is the restarted rank's live matching engine.
        Survivors keep sending while the replacement bootstraps, so its
        fresh context accumulates deliveries *before* the rewind; those
        lseqs are about to be erased from ``seen``, which would let the
        replay deliver a second physical copy of each one (double
        consumption shifts every later match on the channel).  Purging
        the queue here makes the replay the single source of pre-rewind
        traffic: everything purged came from another recovery unit --
        the rank's own siblings restart with it and re-send -- so it is
        in the log and is regenerated exactly once."""
        snap = self.snapshots.get(rank, {}).get(dataset)
        torn = snap is None and dataset is not None
        sim = self.sim
        chan = self.channels[rank]
        if torn:
            # At-death values are the rewind target, determinant cursor
            # included (nothing to replay); only the delivered set
            # shrinks, so the unconsumed tail of the queue is
            # re-deliverable.
            chan.det_cursor = len(self.dets.get(rank, ()))
            chan.rebase_seen()
        else:
            # The cursor lands on the snapshot's record: the execution
            # replays from there to the death point.
            chan.load(snap)
        counters = chan.send_seq
        purged = 0
        if matching is not None:
            _cancelled, purged = matching.reset()
        # The re-execution re-logs everything past the snapshot; drop
        # the dead incarnation's copies so the log holds each logical
        # message once.
        entries = self.logs.get(rank)
        if entries:
            self._trim([
                (rank, [e for e in entries if e.n < counters.get(e.dst, 0)])
            ])
        if sim.tracer.enabled:
            sim.tracer.instant(
                "mlog.rewind", "mlog", rank=rank, epoch=self.job.epoch,
                dataset=-1 if dataset is None else dataset, torn=torn,
                purged=purged,
                counters={str(d): n for d, n in sorted(counters.items())},
            )

    def _replay_into(self, rank: int):
        """Replay logged messages destined to ``rank`` that its rewound
        execution has not consumed, one serialized stream per sender
        (channel FIFO), from each sender's current node."""
        job = self.job
        sim = self.sim
        consumed = self.channels[rank].consumed
        by_sender: Dict[int, List[LogEntry]] = {}
        for src, entries in self.logs.items():
            if src == rank or src in self.recovering:
                continue
            for entry in entries:
                if entry.dst == rank and (src, entry.n) not in consumed:
                    by_sender.setdefault(src, []).append(entry)
        if sim.tracer.enabled:
            sim.tracer.instant(
                "mlog.replay.begin", "mlog", rank=rank, epoch=job.epoch,
                senders=len(by_sender),
                msgs=sum(len(v) for v in by_sender.values()),
            )
        if not by_sender:
            return 0, 0.0
        counts = {"msgs": 0, "bytes": 0.0}
        procs = []
        for src in sorted(by_sender):
            rproc = job.rank_procs.get(src)
            if rproc is None or rproc.task.failed:
                # The sender died too, and its log with it: its
                # replacement re-sends.
                continue
            ctx = job.transport.create_context(
                rproc.node, label=f"mlog:replay:{src}->{rank}"
            )
            procs.append(rproc.node.spawn(
                self._replay_sender(ctx, src, rank, by_sender[src], counts),
                name=f"mlog.replay[{src}->{rank}]",
            ))
        for proc in procs:
            if not proc.triggered:
                yield proc
            elif not proc._ok:
                raise proc._value
        return counts["msgs"], counts["bytes"]

    def _replay_sender(self, ctx, src: int, rank: int,
                       entries: List[LogEntry], counts):
        job = self.job
        transport = job.transport
        tracer = self.sim.tracer
        try:
            for entry in entries:
                dst_addr = job.addr_table.get(rank)
                if dst_addr is None:
                    break
                env = Envelope(
                    src=entry.env_src, dst=entry.env_dst, tag=entry.tag,
                    comm_id=entry.comm_id, epoch=0, nbytes=entry.nbytes,
                    data=_snapshot(entry.data),
                )
                env.lseq = (src, rank, entry.n)
                if tracer.enabled:
                    tracer.instant(
                        "mlog.replay", "mlog", rank=rank, epoch=job.epoch,
                        src=src, tag=entry.tag, n=entry.n,
                        nbytes=entry.nbytes,
                    )
                yield transport.send(ctx, dst_addr, env)
                counts["msgs"] += 1
                counts["bytes"] += entry.nbytes
        finally:
            ctx.close()
