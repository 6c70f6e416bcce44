"""Replication recovery plane: dual-modular ranks that fail over.

Every virtual rank is backed by ``replication_degree`` physical
processes (FTHP-MPI's model; ReStore's in-memory state angle).  All
copies execute the application; the *lead* copy owns the rank's entry
in the endpoint table, and the plane's ``on_send`` sends a clone of
every envelope addressed to a rank to each of its lead's live
replicas, so each copy observes the same message stream.

Three mechanisms keep the copies bit-identical:

* **channel dedup** -- senders stamp ``env.lseq = (src, dst, n)`` from
  a per-context channel counter (:mod:`repro.fmi.channel`); since
  every copy of a sender re-sends the same logical message, each
  receiving copy keeps the first arrival per ``(src, n)`` and drops
  the rest.
* **determinant latch** -- wildcard receives are nondeterministic, so
  the lead records ``(env_src, env_tag)`` per match into a per-rank
  determinant list and followers *replay* it under the channel layer's
  rule: their wildcard posts are rewritten to the exact recorded
  source, parking when caught up until the lead's record arrives.  A
  promoted copy first drains any recorded determinants it has not
  consumed, then posts natively.
* **standby re-arm** -- a respawned copy buffers mirrored traffic (its
  context's receive filter parks every stamped envelope until it
  syncs), waits for the lead's next checkpoint, clones the lead's
  in-memory checkpoint storage plus the channel counters snapshotted
  at that checkpoint, restores, and re-executes into sync (its
  duplicate sends are suppressed at every receiver by the channel
  dedup).

Failure handling is a two-tier ladder (``try_failover``):

* a death that leaves every virtual rank with at least one live,
  synced copy is absorbed without *any* rollback -- replica-only
  deaths complete recovery instantly; a lead death promotes the
  surviving copy in place after ``FAILOVER_DELAY`` while survivors
  never leave their compute state (H3);
* only when some rank loses its last synced copy does the plane fall
  back to the classic coordinated restore: it elects one copy per
  rank, retires the rest to the standby protocol, and the elected
  cohort performs a plain global rollback (epoch-fenced by
  ``fallback_epoch``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.fmi.channel import ChannelPlane, ChannelState
from repro.fmi.payload import unpack
from repro.mpi.datatypes import snapshot as _snapshot
from repro.net.matching import ANY_SOURCE, ANY_TAG
from repro.net.message import Envelope
from repro.simt.kernel import Event

__all__ = ["ReplicationPlane"]


class _StandbyRec:
    """Book-keeping for one re-arming copy awaiting its sync point."""

    __slots__ = ("rank", "copy", "eligible_ds", "sync", "buffered")

    def __init__(self, rank: int, copy: int, sim):
        self.rank = rank
        self.copy = copy
        #: first dataset whose *begin* fell after this standby started
        #: buffering (checkpoints already in flight at registration may
        #: predate some mirrored traffic, so they cannot be sync points)
        self.eligible_ds: Optional[int] = None
        self.sync = Event(sim)
        #: stamped envelopes buffered until the sync point
        self.buffered: List[Envelope] = []

    def park(self, env: Envelope) -> bool:
        """The unsynced standby's receive filter: buffer every stamped
        envelope until the sync point tells which of them the snapshot
        consumed."""
        self.buffered.append(env)
        return False


def _chain(inner: Event, outer: Event) -> None:
    """Forward ``inner``'s outcome into ``outer`` (parked wildcards)."""

    def _cb(evt: Event) -> None:
        if outer.triggered:
            return
        if evt._ok:
            outer.succeed(evt._value)
        else:
            outer.fail(evt._value)

    if inner.triggered:
        _cb(inner)
    else:
        inner.callbacks.append(_cb)


class ReplicationPlane(ChannelPlane):
    """Shared state of the ``recovery="replicated"`` family.

    Determinants are keyed by virtual rank and recorded by its lead;
    snapshot windows hold the lead's channel state, a standby's seed."""

    hop_fidelity = "replicated"
    trace_cat = "repl"

    #: promotion latency: failure-notice fan-in plus republishing the
    #: endpoint table -- no state movement, which is the whole point
    #: (well under the logged plane's measured 0.455 s recovery)
    FAILOVER_DELAY = 0.15

    def __init__(self, job):
        super().__init__(job)
        #: rank -> copy -> FmiProcess (current incarnations)
        self.copies: Dict[int, Dict[int, object]] = {}
        #: rank -> its lead's live replica contexts (``on_send``'s
        #: fan-out)
        self.mirrors: Dict[int, List[object]] = {}
        #: context -> its channel state (each copy dedups on its own)
        self.channels: Dict[object, ChannelState] = {}
        #: rank -> [(ctx, source, tag, comm_id, event)] wildcards parked
        #: on followers until the lead's determinant arrives
        self.parked: Dict[int, List[tuple]] = {}
        # -- standby protocol --
        #: unsynced standby ctx -> its record (and buffered envelopes)
        self.standby_recs: Dict[object, _StandbyRec] = {}
        #: (rank, copy) slots whose next incarnation must re-arm as a
        #: standby instead of booting as a peer copy
        self.standby_expected: Set[Tuple[int, int]] = set()
        # -- epoch fencing --
        #: epoch of the most recent fallback (None = never fell back);
        #: ``fallback_epoch or 0`` is the era every replicated context
        #: stamps/filters at.  Only a fallback bumps it: failovers must
        #: *not* fence out in-flight traffic (survivors keep computing),
        #: and a re-arming standby must accept survivor traffic stamped
        #: before its respawn.
        self.fallback_epoch: Optional[int] = None

    # ------------------------------------------------------------ geometry
    def adopt(self, fproc) -> None:
        """A (re)spawned copy registers itself (``JobBase`` adoption)."""
        rank, copy = fproc.rank, fproc.copy
        cps = self.copies.setdefault(rank, {})
        old = cps.get(copy)
        if old is not None:  # the copy it replaces leaves nothing behind
            self.channels.pop(old.ctx, None)
            self.standby_recs.pop(old.ctx, None)
            old.ctx.close()
        cps[copy] = fproc
        if (rank, copy) in self.standby_expected:
            return  # re-arming: never the lead, even at the lead index
        # the lead's copy index (copy 0 before the rank has a lead)
        if copy == getattr(self.job.rank_procs.get(rank), "copy", 0):
            self.job.rank_procs[rank] = fproc

    def is_unsynced(self, fproc) -> bool:
        return (
            (fproc.rank, fproc.copy) in self.standby_expected
            or fproc.ctx in self.standby_recs
        )

    def rendezvous_scope(self, fproc):
        """Per copy-cohort at boot, per slot for a re-arming standby,
        and world-wide (one copy per rank) for a fallback restore."""
        job = self.job
        epoch = job.epoch
        if self.is_unsynced(fproc):
            # A re-arming standby synchronises only with its own
            # slot-mates (they respawn as one task).
            slot = job.slot_of_rank(fproc.rank)
            return (
                (epoch, "standby", slot, fproc.copy, fproc.incarnation),
                max(len(self.unfinished_ranks(slot)), 1), job.ppn,
            )
        if epoch == 0:
            # Boot: each copy-cohort bootstraps as a full world.
            return (0, "boot", fproc.copy), job.num_ranks, job.num_ranks
        # Fallback restore: the elected cohort, one copy per rank.
        return (
            (epoch, "fallback"),
            job.num_ranks - len(job.results),
            job.num_ranks,
        )

    def overlay_epoch(self, fproc) -> Optional[int]:
        # Only the *lead* copies ring together (followers and standbys
        # are shadows; fmirun's task monitoring plus the plane's direct
        # pokes cover them), and survivors never re-join.
        return 0 if self.job.rank_procs.get(fproc.rank) is fproc else None

    def absorb_notification(self, fproc, generation: int) -> bool:
        # Failover epochs are invisible: every copy absorbs.  Only the
        # fallback epoch (some rank lost every copy) unwinds to H1.
        return generation != self.fallback_epoch

    # ------------------------------------------------------------ boot (H1)
    def on_h1(self, fproc) -> None:
        """Wire one copy's context into the plane, which owns the whole
        decision: era epoch, dedup filter, determinant sink, and whether
        this copy is the lead (endpoint table), a follower (mirror
        target), or a re-arming standby (buffer + sync record)."""
        job = self.job
        ctx = fproc.ctx
        rank = fproc.rank
        ctx.epoch = self.fallback_epoch or 0
        # A context entering H1 starts (or restarts) with clean channel
        # state; post-fallback survivors re-enter here after the
        # wholesale era reset.
        chan = self.channels[ctx] = ChannelState()
        self._wire(fproc, chan)
        if (rank, fproc.copy) in self.standby_expected:
            self.standby_expected.discard((rank, fproc.copy))
            rec = self.standby_recs[ctx] = _StandbyRec(rank, fproc.copy,
                                                       self.sim)
            ctx.recv_filter = rec.park
            self._rebuild_mirrors(rank)
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    "repl.standby.register", "repl", rank=rank,
                    copy=fproc.copy, epoch=job.epoch, job=job.job_id,
                )
            return
        if job.rank_procs.get(rank) is fproc:
            job.register_endpoint(rank, ctx)
        self._rebuild_mirrors(rank)

    def _rebuild_mirrors(self, rank: int) -> None:
        self.mirrors.pop(rank, None)
        lead = self.job.rank_procs.get(rank)
        if lead is None:
            return
        followers = [
            p.ctx
            for _c, p in sorted(self.copies.get(rank, {}).items())
            if p is not lead and not p.task.failed and not p.ctx.closed
        ]
        if followers:
            self.mirrors[rank] = followers

    # ------------------------------------------------------------ data plane
    def on_send(self, src: int, dst: int, env: Envelope, ctx=None) -> None:
        """Stamp the sender's channel sequence (per *context*: each copy
        runs the same channel schedule, so copies of one rank produce
        identical lseq streams), then send the mirror clones of an
        envelope to ``dst``.  The clones enter the wire before the
        caller sends ``env`` itself: that order of wire starts is part
        of the pinned schedule."""
        send_seq = self.channels[ctx].send_seq
        n = send_seq.get(dst, 0)
        send_seq[dst] = n + 1
        env.lseq = (src, dst, n)
        transport = self.job.transport
        for maddr, menv in self.mirror_copies(dst, env):
            transport.send(ctx, maddr, menv)

    def mirror_copies(self, dst: int, env: Envelope):
        """Clones of ``env`` for the replicas shadowing rank ``dst``'s
        lead.

        Payloads are snapshotted per clone: copies of a rank must never
        share one mutable buffer.  Each clone is an envelope of its own
        that keeps the lseq, the identity the receiving copies dedup on.
        """
        targets = self.mirrors.get(dst)
        if not targets:
            return ()
        out = []
        for ctx in targets:
            if ctx.closed or not ctx.node.alive:
                continue
            menv = Envelope(
                src=env.src, dst=env.dst, tag=env.tag, comm_id=env.comm_id,
                epoch=env.epoch, nbytes=env.nbytes, data=_snapshot(env.data),
            )
            menv.lseq = env.lseq
            out.append((ctx.addr, menv))
        return out

    def _make_recv_filter(self, chan: ChannelState):
        """Exact-once per channel lseq; an unsynced standby's context
        parks instead (:meth:`_StandbyRec.park`) until it syncs."""

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
        rank = fproc.rank

        def sink(source: int, tag: int, env: Envelope) -> None:
            lseq = env.lseq
            if lseq is not None:
                chan.consumed.add((lseq[0], lseq[2]))
            if source == ANY_SOURCE or tag == ANY_TAG:
                # Only the lead records; its followers replay.
                if self.job.rank_procs.get(rank) is fproc:
                    self._record(rank, chan, source, tag, env)
                    self._drain_parked(rank)

        return sink

    # ------------------------------------------------- wildcard determinants
    def post_wildcard(self, fmi_ctx, source: int, tag: int, comm_id: int):
        """Replica consistency: followers replay the lead's recorded
        match order (parking until it is recorded).

        Returns an event for the caller to yield, or ``None`` when the
        caller (the current lead, fully caught up on its own record)
        should post natively and let the sink record the match.
        """
        rank = fmi_ctx.rank
        ctx = fmi_ctx.ctx
        det = self._next_det(rank, self.channels[ctx], source, tag, comm_id)
        if det is not None:
            return ctx.matching.post(det.env_src, det.env_tag, comm_id)
        if self.job.rank_procs.get(rank) is fmi_ctx.fproc:
            return None
        evt = Event(self.sim)
        self.parked.setdefault(rank, []).append((ctx, source, tag, comm_id, evt))
        return evt

    def _drain_parked(self, rank: int) -> None:
        waiters = self.parked.pop(rank, None)
        if not waiters:
            return
        lead = self.job.rank_procs.get(rank)
        remaining = []
        for entry in waiters:
            ctx, source, tag, comm_id, evt = entry
            if evt.triggered or ctx.closed or not ctx.node.alive:
                continue
            det = self._next_det(rank, self.channels[ctx], source, tag,
                                 comm_id)
            if det is not None:
                _chain(ctx.matching.post(det.env_src, det.env_tag, comm_id), evt)
            elif lead is not None and lead.ctx is ctx:
                # This copy was promoted while parked: its wildcard is
                # now the recording side -- post natively.
                _chain(ctx.matching.post(source, tag, comm_id), evt)
            else:
                remaining.append(entry)
        if remaining:
            # Native posts above may have recursed through the sink and
            # parked/drained more entries; keep FIFO order per rank.
            self.parked[rank] = remaining + self.parked.get(rank, [])

    # ------------------------------------------------------------ failover
    def try_failover(self, policy, cause: str) -> bool:
        """Classify the damage; True = handled without any rollback."""
        job = self.job
        if not job.recovered_at or (
            self.fallback_epoch is not None
            and self.fallback_epoch not in job.recovered_at
        ):
            # A failure landed before the job booted (the boot cohorts
            # cannot fill) or *during* a fallback restore: (re)start
            # the fallback at the fresh epoch (it must own the new
            # generation or nobody would unwind for it).
            self._fallback(cause)
            return False
        dead_lead_slots: List[int] = []
        lost_replica = False
        for vslot in range(job.num_nodes):
            ranks = self.unfinished_ranks(vslot)
            if not ranks:
                continue
            lead_dead = any(
                job.rank_procs.get(r) is None or job.rank_procs[r].task.failed
                for r in ranks
            )
            if lead_dead:
                if self._live_synced_copy(vslot) is None:
                    self._fallback(cause)
                    return False
                dead_lead_slots.append(vslot)
            elif any(
                p.task.failed
                for r in ranks
                for p in self.copies.get(r, {}).values()
            ):
                lost_replica = True
        # Every dead copy's next incarnation re-arms as a standby (a
        # fresh process has no state and must never act as a peer).
        for rank, cps in self.copies.items():
            if rank in job.results:
                continue
            for copy, p in cps.items():
                if p.task.failed:
                    self.standby_expected.add((rank, copy))
        for rank in self.copies:
            self._rebuild_mirrors(rank)
        if dead_lead_slots:
            self.sim.spawn(
                self._promote(job.epoch, dead_lead_slots, cause),
                name="repl.promote",
            )
            return True
        if lost_replica:
            if self.sim.tracer.enabled:
                self.sim.tracer.instant(
                    "repl.replica_lost", "repl", epoch=job.epoch, cause=cause,
                    job=job.job_id,
                )
        # Service never blinked: recovery is complete the instant the
        # failure was classified.
        job.note_recovery_complete()
        return True

    def _live_synced_copy(self, vslot: int) -> Optional[int]:
        """A copy index with live, synced processes for every rank of
        ``vslot`` -- deaths are task-granular, so copies live or die as
        whole slots."""
        job = self.job
        ranks = self.unfinished_ranks(vslot)
        for copy in range(job.config.num_copies):
            for r in ranks:
                p = self.copies.get(r, {}).get(copy)
                if p is None or p.task.failed or self.is_unsynced(p):
                    break
            else:
                return copy
        return None

    def _promote(self, epoch: int, vslots: List[int], cause: str):
        yield self.sim.timeout(self.FAILOVER_DELAY)
        job = self.job
        if job.finished:
            return
        if (
            self.fallback_epoch is not None
            and self.fallback_epoch not in job.recovered_at
        ):
            return  # superseded by a fallback
        for vslot in vslots:
            ranks = self.unfinished_ranks(vslot)
            if not ranks or all(
                job.rank_procs.get(r) is not None
                and not job.rank_procs[r].task.failed
                for r in ranks
            ):
                continue  # a later recovery already handled it
            copy = self._live_synced_copy(vslot)
            if copy is None:
                continue  # the later death's own recovery takes over
            for r in ranks:
                proc = self.copies[r][copy]
                job.rank_procs[r] = proc
                job.register_endpoint(r, proc.ctx)
                self._rebuild_mirrors(r)
                if self.sim.tracer.enabled:
                    self.sim.tracer.instant(
                        "repl.promote", "repl", rank=r, copy=copy,
                        epoch=epoch, cause=cause, job=job.job_id,
                    )
                self._drain_parked(r)
        if job.epoch == epoch:
            job.note_recovery_complete()

    # ------------------------------------------------------------ fallback
    def _fallback(self, cause: str) -> None:
        """Some rank lost its last synced copy: coordinated rollback.

        Elect exactly one copy per virtual slot (two live copies of a
        rank must not both join the restore collectives -- their
        contributions would collide on identical lseq), retire every
        other copy to the standby protocol, fence the old era's
        traffic, and let the elected cohort run a plain global restore.
        """
        job = self.job
        epoch = job.epoch
        self.fallback_epoch = epoch
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "repl.fallback", "repl", epoch=epoch, cause=cause,
                job=job.job_id,
            )
        # Wholesale era reset: channel counters restart from zero on
        # both sides, and the epoch fence disposes of old-era traffic.
        self.dets.clear()
        for chan in self.channels.values():
            chan.load(None)
        self.parked.clear()
        for ctx in self.standby_recs:  # no longer parking
            ctx.recv_filter = self._make_recv_filter(self.channels[ctx])
        self.standby_recs.clear()
        self.standby_expected.clear()
        self.snapshots.clear()
        self.mirrors.clear()
        for vslot in range(job.num_nodes):
            active = self.unfinished_ranks(vslot)
            elected = None
            if active:
                cur = job.rank_procs[active[0]].copy
                for copy in [cur] + [
                    c for c in range(job.config.num_copies) if c != cur
                ]:
                    if all(
                        self.copies.get(r, {}).get(copy) is not None
                        and not self.copies[r][copy].task.failed
                        for r in active
                    ):
                        elected = copy
                        break
                if elected is None:
                    elected = 0  # every copy died: copy 0's respawn
                    # rejoins the cohort and restores via XOR rebuild
                for r in active:
                    job.rank_procs[r] = self.copies[r][elected]
            for r in job.ranks_of_slot(vslot):
                for copy, p in self.copies.get(r, {}).items():
                    if copy == elected and r in active:
                        continue
                    p.kill("replication fallback: redundant copy")
                    # Retired copies often sit on live nodes (the kill
                    # is task-granular); close their contexts so parked
                    # receives are cancelled and stray mirrored traffic
                    # is dropped at the transport.
                    p.ctx.close()
                    if r in active:
                        self.standby_expected.add((r, copy))
        # The overlay is degraded after failovers (promoted leads never
        # re-joined the log-ring), so poke every surviving copy
        # directly instead of trusting detector propagation.
        for p in job.fmirun.processes():
            p.notify_failure(epoch, "replication fallback")

    # ------------------------------------------------------------ checkpoints
    def note_ckpt_begin(self, rank: int, dataset_id: int, ctx=None) -> None:
        lead = self.job.rank_procs.get(rank)
        if lead is None or lead.ctx is not ctx:
            return
        for rec in self.standby_recs.values():
            if rec.rank == rank and rec.eligible_ds is None:
                rec.eligible_ds = dataset_id

    def note_rank_checkpoint(self, rank: int, dataset_id: int, ctx=None) -> None:
        lead = self.job.rank_procs.get(rank)
        if lead is None or lead.ctx is not ctx:
            return  # follower checkpoints are local redundancy only
        self._file_snapshot(rank, self.channels[ctx], dataset_id)
        for rec in self.standby_recs.values():
            if (
                rec.rank == rank
                and rec.eligible_ds is not None
                and dataset_id >= rec.eligible_ds
                and not rec.sync.triggered
            ):
                rec.sync.succeed(dataset_id)

    # ------------------------------------------------------------ restore
    def partial_restore(self, fmi_ctx):
        """FMI_Loop restore hook for a replicated context.

        Standbys sync against their lead's live state; fallback-cohort
        members run the ordinary coordinated restore this plane
        otherwise never touches.
        """
        rec = self.standby_recs.get(fmi_ctx.ctx)
        if rec is None:
            return (yield from super().restore(fmi_ctx))
        return (yield from self._standby_sync(fmi_ctx, rec))

    #: the seam's name for it (the perf ledger's entry point is
    #: ``partial_restore``)
    restore = partial_restore

    def _standby_sync(self, fmi_ctx, rec: _StandbyRec):
        job = self.job
        ctx = fmi_ctx.ctx
        rank = fmi_ctx.rank
        t0 = self.sim.now
        while True:
            yield rec.sync
            lead = job.rank_procs.get(rank)
            if lead is None or lead.task.failed:
                # The lead died between its checkpoint and our clone;
                # whatever recovery that death triggered owns us now --
                # re-arm against the next lead checkpoint in case we
                # stay a standby.
                rec.sync = Event(self.sim)
                rec.eligible_ds = None
                continue
            nbytes = max(lead.storage.nbytes, 64.0)
            try:
                yield job.machine.fabric.send(
                    lead.node, fmi_ctx.node, nbytes,
                    sw_overhead=job.transport.sw_overhead,
                )
                yield fmi_ctx.node.memcpy(nbytes)
            except Exception:
                rec.sync = Event(self.sim)
                rec.eligible_ds = None
                continue
            if not lead.task.failed:
                break
            rec.sync = Event(self.sim)
            rec.eligible_ds = None
        # Clone the lead's in-memory checkpoint storage wholesale, then
        # restore the newest dataset we hold a channel snapshot for
        # (the lead may have checkpointed again mid-transfer).
        fmi_ctx.fproc.storage.clone_from(lead.storage)
        window = self.snapshots.get(rank, {})
        ids = [ds for ds in fmi_ctx.engine.completed_ids() if ds in window]
        if not ids:
            # Snapshot/storage retention rotate together, so this means
            # the plane state was wiped (fallback) under our feet; the
            # fallback killed or will kill this copy.
            rec.sync = Event(self.sim)
            yield rec.sync
            raise AssertionError("unreachable: standby outlived fallback")
        dataset = max(ids)
        chan = self.channels[ctx]
        chan.load(window[dataset])
        # Synced: stop buffering and deliver, through the exact-once
        # filter, what the snapshot has not already consumed.
        self.standby_recs.pop(ctx, None)
        ctx.recv_filter = accept = self._make_recv_filter(chan)
        pend = rec.buffered
        delivered = 0
        for env in pend:
            if env.epoch >= ctx.epoch and accept(env):
                ctx.matching.deliver(env)
                delivered += 1
        if self.sim.tracer.enabled:
            self.sim.tracer.instant(
                "repl.standby.sync", "repl", rank=rank, copy=rec.copy,
                dataset=dataset, waited=self.sim.now - t0,
                delivered=delivered, buffered=len(pend), job=self.job.job_id,
            )
        meta = yield from fmi_ctx.engine.load_meta(dataset)
        blob = yield from fmi_ctx.engine.load_blob(dataset)
        return meta, unpack(blob, meta.sections)
