"""The log-ring failure detector (Section IV-C).

Each rank in the H2 Connecting state joins the current epoch's overlay:
ibverbs-style connections to its log-ring neighbours.  When a process
dies, every connection it held raises a disconnection event on the
surviving side after the ~0.2 s ibverbs close delay.  A survivor that
receives such an event

1. *cascades*: explicitly closes its remaining overlay connections, so
   its neighbours hear within one hop delay, and
2. *notifies* its own process, which aborts C/R and application work
   and transitions back to H1.

The cascade reaches every rank within ``ceil(ceil(log2 n)/2)`` hops
(Figure 7); the measured notification times are Fig 13.

Gray-failure hardening: a disconnect event whose root cause is a
network partition (``partition:`` reason) is *not* proof of death --
the peer is usually alive on the other side of the cut, and treating
the event as a failure on both sides would trigger split-brain double
recovery.  Such events only raise a *suspicion*; after a grace period
the detector verifies the suspect out-of-band (fmirun's management
network, which a compute-fabric partition does not touch) and either
clears the suspicion or escalates it into a real notification.  When
the partition heals, the detector re-establishes the overlay edges the
cut destroyed, in the current epoch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.endpoint import Connection, ConnectionManager
from repro.net.overlay import hops_of_reason, logring_neighbors, root_reason

__all__ = ["LogRingDetector"]

Key = Tuple[int, int]  # (rank, overlay epoch)


class LogRingDetector:
    """Builds per-epoch log-ring overlays and turns connection events
    into FMI failure notifications."""

    #: log-ring base (Section IV-C: the paper's k = 2)
    K = 2
    #: how long a partition-rooted disconnect is held as a suspicion
    #: before it is verified out-of-band (fmirun's management network)
    #: and dropped if the suspect is alive: no split-brain double
    #: recovery on a cut
    SUSPICION_GRACE = 0.5

    def __init__(self, job):
        self.job = job
        self.cm = ConnectionManager(job.machine)
        self._joined_epoch: Dict[int, int] = {}
        self._cascaded: Dict[int, int] = {}  # rank -> last generation cascaded
        #: pending partition-rooted suspicions: (rank, peer) -> raised-at
        self._suspected: Dict[Tuple[int, int], float] = {}
        #: suspicions cleared because the suspect was alive (gray stats)
        self.false_suspicions = 0
        #: overlay edges re-established after partition heals
        self.repaired_edges = 0
        # Registered after the ConnectionManager's own death listener, so
        # by the time _on_node_death runs the node's edges are closed
        # and unlisted.
        job.machine.death_listeners[self._on_node_death] = None
        job.machine.fabric.heal_listeners[self._on_partition_heal] = None

    def detach(self) -> None:
        """Unhook this job's detector from the machine (job teardown).
        Tenants come and go on a shared cluster; a finished job's
        detector must stop hearing node deaths entirely rather than
        early-returning forever."""
        self.job.machine.death_listeners.pop(self._on_node_death, None)
        self.job.machine.fabric.heal_listeners.pop(self._on_partition_heal, None)
        self.cm.detach()

    # -- membership -----------------------------------------------------------
    def connections_per_rank(self, n: int) -> int:
        return len(logring_neighbors(0, n, self.K))

    def edges(self, rank: int) -> List[Connection]:
        """``rank``'s overlay edges, in establishment order: the
        connection manager's open connections at ``(rank, joined
        epoch)``.  Every edge a rank has belongs to the epoch it
        joined, and the manager unlists a connection the moment it
        closes, so the detector keeps no table of its own."""
        return list(self.cm.by_end.get((rank, self._joined_epoch.get(rank)), ()))

    def _link(self, rank: int, peer: int, epoch: int) -> bool:
        """Create the ``epoch`` overlay edge between two live ranks.
        False when a partition cut separates their nodes right now:
        :meth:`_repair` retries on heal."""
        procs = self.job.rank_procs
        try:
            conn = self.cm.connect(
                (rank, epoch), procs[rank].node, (peer, epoch), procs[peer].node
            )
        except ConnectionError:
            return False
        conn.on_disconnect((rank, epoch), self._on_event)
        conn.on_disconnect((peer, epoch), self._on_event)
        return True

    def join(self, fproc, epoch: int) -> None:
        """``fproc`` (in H2) enters the epoch's overlay.

        Old-epoch edges are torn down silently (both sides rebuild).
        Edges appear when the *second* endpoint of a pair joins, so
        after every member has joined the overlay is complete.
        """
        rank = fproc.rank
        for conn in self.edges(rank):
            conn.close_silent()
        self._joined_epoch[rank] = epoch
        n = self.job.num_ranks
        out = logring_neighbors(rank, n, self.K)
        neighbours = set(out)
        # Incoming edges are the mirror image: rank - offset for every
        # log-ring offset (closed form; avoids an O(n) scan per join).
        offsets = [(peer - rank) % n for peer in out]
        neighbours |= {(rank - off) % n for off in offsets}
        neighbours.discard(rank)
        for peer in neighbours:
            if self._joined_epoch.get(peer) != epoch:
                continue  # peer will create the edge when it joins
            peer_proc = self.job.rank_procs.get(peer)
            if peer_proc is not None and peer_proc.alive:
                self._link(rank, peer, epoch)
        sim = self.job.sim
        if sim.tracer.enabled:
            sim.tracer.instant(
                "overlay.join", "overlay", rank=rank, node=fproc.node.id,
                incarnation=fproc.incarnation, epoch=epoch,
                edges=len(self.edges(rank)), job=self.job.job_id,
            )

    def leave(self, rank: int) -> None:
        """Silently drop a rank's overlay edges (finished rank)."""
        for conn in self.edges(rank):
            conn.close_silent()
        self._joined_epoch.pop(rank, None)
        self._clear_suspicions(rank, resolution="left")

    # -- death without node death ------------------------------------------------
    def process_died(self, rank: int, reason: str) -> None:
        """fmirun.task saw a child die while its node stayed up; break
        the child's connections as the ibverbs layer would."""
        for conn in self.edges(rank):
            conn.break_by_owner_death((rank, self._joined_epoch[rank]), reason)
        self._joined_epoch.pop(rank, None)
        self._clear_suspicions(rank, resolution="dead")

    def _on_node_death(self, node, cause) -> None:
        """Forget every rank that died with ``node``: its join epoch and
        its pending suspicions.  Its edges are already closed, and so
        unlisted, by the connection manager's own death listener."""
        if self.job.finished:
            return
        for rank, rproc in list(self.job.rank_procs.items()):
            if rproc.node is not node:
                continue
            self._joined_epoch.pop(rank, None)
            self._clear_suspicions(rank, resolution="dead")

    # -- event handling -----------------------------------------------------------
    def _on_event(self, conn: Connection, key: Any, reason: str) -> None:
        rank, epoch = key
        fproc = self.job.rank_procs.get(rank)
        if fproc is None or not fproc.alive:
            return
        if root_reason(reason).startswith("partition:"):
            # A cut is not a death: both endpoints of the broken edge
            # are (usually) alive, and acting on the event directly
            # would start recovery on *both* sides of the partition.
            peer_rank = conn.peer_of(key)[0]
            self._suspect(rank, epoch, peer_rank, reason)
            return
        self._escalate(fproc, epoch, reason)

    def _escalate(self, fproc, epoch: int, reason: str) -> None:
        """A confirmed failure: cascade through the overlay and notify
        this endpoint's process (live: its caller just checked)."""
        generation = epoch + 1  # a failure under epoch e leads to epoch e+1
        rank = fproc.rank
        if self._cascaded.get(rank, -1) < generation:
            self._cascaded[rank] = generation
            for other in self.edges(rank):
                other.close_from((rank, epoch), reason=f"cascade:{reason}")
            sim = self.job.sim
            hop = hops_of_reason(reason)
            if sim.tracer.enabled:
                sim.tracer.instant(
                    "overlay.notified", "overlay", rank=rank,
                    node=fproc.node.id, incarnation=fproc.incarnation,
                    epoch=generation, hop=hop, reason=reason,
                    job=self.job.job_id,
                )
        fproc.notify_failure(generation, reason)

    # -- suspicion (partition-rooted events) ----------------------------------
    def _suspect(self, rank: int, epoch: int, peer_rank: int, reason: str) -> None:
        """``rank`` lost its edge to ``peer_rank`` through a partition
        cut; hold the event as a suspicion and verify after a grace
        period instead of acting on it."""
        pair = (rank, peer_rank)
        if pair in self._suspected:
            return  # flapping link: one pending verification per pair
        sim = self.job.sim
        self._suspected[pair] = sim.now
        if sim.tracer.enabled:
            sim.tracer.instant(
                "overlay.suspect", "overlay", rank=rank,
                peer=peer_rank, reason=reason, job=self.job.job_id,
            )
        timer = sim.timeout(self.SUSPICION_GRACE)
        timer.callbacks.append(
            lambda _e: self._verify(rank, epoch, peer_rank, reason)
        )

    def _verify(self, rank: int, epoch: int, peer_rank: int, reason: str) -> None:
        """Grace period over: probe the suspect out-of-band.

        The compute fabric may be partitioned but fmirun's management
        network (PMGR, login node) is not, so the master can always
        answer "is this process alive?".  Alive => false positive,
        drop the suspicion.  Dead => escalate as a confirmed failure.
        """
        if self._suspected.pop((rank, peer_rank), None) is None:
            return  # already resolved (heal, leave, or death)
        fproc = self.job.rank_procs.get(rank)
        if fproc is None or not fproc.alive:
            return
        sim = self.job.sim
        peer_proc = self.job.rank_procs.get(peer_rank)
        if peer_proc is not None and peer_proc.alive:
            self.false_suspicions += 1
            if sim.tracer.enabled:
                sim.tracer.instant(
                    "overlay.suspect.cleared", "overlay", rank=rank,
                    peer=peer_rank, resolution="peer-alive",
                    job=self.job.job_id,
                )
            return
        if sim.tracer.enabled:
            sim.tracer.instant(
                "overlay.suspect.cleared", "overlay", rank=rank,
                peer=peer_rank, resolution="confirmed-dead",
                job=self.job.job_id,
            )
        self._escalate(fproc, epoch, f"confirmed:{reason}")

    def _clear_suspicions(self, rank: Optional[int] = None, resolution: str = "healed") -> None:
        """Resolve pending suspicions involving ``rank`` (or all, when
        ``rank`` is None).  The grace timer still fires but finds the
        pair gone and does nothing."""
        sim = self.job.sim
        for pair in [p for p in self._suspected if rank is None or rank in p]:
            self._suspected.pop(pair, None)
            if sim.tracer.enabled:
                sim.tracer.instant(
                    "overlay.suspect.cleared", "overlay", rank=pair[0],
                    peer=pair[1], resolution=resolution,
                    job=self.job.job_id,
                )

    # -- partition heal: rejoin the overlay -----------------------------------
    def _on_partition_heal(self, tag: str) -> None:
        if self.job.finished:
            return
        self._clear_suspicions(resolution="healed")
        self._repair()

    def _has_open_edge(self, rank: int, peer: int) -> bool:
        for conn in self.edges(rank):
            if {key[0] for key in conn.ends} == {rank, peer}:
                return True
        return False

    def _repair(self) -> None:
        """Re-establish the overlay edges the partition destroyed.

        Only pairs where both ranks are alive and joined in the
        *current* epoch are rebuilt -- a healed partition rejoins the
        current epoch's overlay, never a stale one.
        """
        job = self.job
        epoch = job.epoch
        members = []
        for rank in sorted(self._joined_epoch):
            if self._joined_epoch[rank] != epoch:
                continue
            rproc = job.rank_procs.get(rank)
            if rproc is not None and rproc.alive:
                members.append(rank)
        joined = set(members)
        n = job.num_ranks
        sim = job.sim
        for rank in members:
            for peer in logring_neighbors(rank, n, self.K):
                if peer not in joined or self._has_open_edge(rank, peer):
                    continue
                if not self._link(rank, peer, epoch):
                    continue  # still unreachable (e.g. a new partition)
                self.repaired_edges += 1
                if sim.tracer.enabled:
                    sim.tracer.instant(
                        "overlay.repair", "overlay", rank=rank,
                        epoch=epoch, peer=peer, job=self.job.job_id,
                    )
