"""Runtime-wide invariants of every chaos run: fed online, replayable.

The trace invariants are one state machine, :class:`TraceInvariants`,
with one handler per event name it reads; a handler serves every
invariant that reads that name.  :func:`~repro.chaos.runner.run_campaign`
subscribes the machine to the run's tracer before launch, so it reads
the run as it happens; ``TraceInvariants().replay(events)`` reads a
recorded trace through the same handlers.  Every check returns a list
of :class:`Violation` s (empty = green):

* read from the trace (stated in the :class:`TraceInvariants`
  docstring): **epoch-monotone**, **no-stale-delivery** (the epoch
  filter of Section IV-D), **no-split-brain** and
  **suspicion-resolved** (gray failures), **no-orphans** (the logged
  plane), **zero-rollback** (the replicated plane) and, on a shared
  cluster, **tenant-isolation**;
* read from the runtime once the run ends: **posted-receives**,
  **detector-bounded** (sampled during the run by
  :class:`DetectorMonitor`), **link-accounting** and the **answer**.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.net.overlay import root_reason
from repro.obs.tracer import TraceReader

__all__ = [
    "Violation", "DetectorMonitor", "TraceInvariants", "takes_down",
    "check_posted_receives", "check_detector_bounded", "check_answer",
    "check_link_accounting",
]


@dataclass(frozen=True)
class Violation:
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


#: the trace invariants, in the order their violations are reported
TRACE_INVARIANTS = ("epoch-monotone", "no-stale-delivery", "no-split-brain",
                    "suspicion-resolved", "no-orphans", "zero-rollback")

def takes_down(action: str) -> bool:
    """Whether a ``chaos.inject`` action took a rank or a node down: a
    kill or a drain that was neither refused nor aimed at the dead."""
    return (action.startswith(("kill ", "drain slot"))
            and "refused" not in action and "already dead" not in action)


def _context(ev, job=None) -> str:
    """``" (epoch E, job J)"``, with whichever of the two ``ev`` carries
    (the job, if it carries none, is ``job``)."""
    labels = {"epoch": ev.epoch, "job": ev.args.get("job", job)}
    text = ", ".join(f"{k} {v}" for k, v in labels.items() if v is not None)
    return f" ({text})" if text else ""


# ----------------------------------------------------------- trace machine
class TraceInvariants(TraceReader):
    """Every trace invariant as one state machine, fed event by event.

    Each name in ``EVENTS`` has one handler, which updates every
    invariant that reads the name and flags a per-event violation at
    once, with the event's time and rank.  :meth:`violations` adds what
    only the whole trace can tell; :meth:`tenant_isolation` judges a
    shared cluster; :meth:`verdict` adds the state checks.  Feed it live
    (:meth:`subscribe`) or a recorded trace (:meth:`replay`).

    The invariants, in the order :meth:`violations` reports them:

    * **epoch-monotone** -- recovery epochs never run backwards, per
      (tenant, rank): the epoch on ``fmi.state`` transitions never
      decreases, and ``fmi.notify`` generations strictly increase per
      incarnation.  Keyed by the ``job`` label the runtime stamps on
      every ``fmi.*`` event: two tenants legitimately run the same rank
      numbers at unrelated epochs, and only same-tenant regressions are
      bugs.
    * **no-stale-delivery** -- no envelope from an older epoch was
      delivered into a context: every ``net.recv`` carries its
      context's epoch (``ctx_epoch``), and an older envelope means the
      transport's epoch filter was bypassed.  An ``mpi.collective``
      record (a macro instance) carries the same pair: an instance of a
      dead epoch completed, which the coordinator's reset should have
      cancelled.
    * **no-split-brain** -- a partition alone never drives recovery.
      Two teeth: no ``fmi.notify`` whose root reason is a raw
      ``partition:`` event (the detector holds such events as
      suspicions and acts only after out-of-band confirmation,
      ``confirmed:...``); and no more recovery epochs than real
      deaths/drains were injected, so a cut observed on both sides
      cannot silently double the recovery count.
    * **suspicion-resolved** -- every raised suspicion is eventually
      cleared, per tenant (peer alive, healed, dead, or the rank left);
      an unresolved suspicion is a leaked timer or a lost decision.
    * **no-orphans** -- partial rollback never leaves an orphan receive
      behind.  An orphan is a process whose state depends on a message
      its sender's rollback "unsent".  Under sender-based logging every
      delivered channel message ``(src, dst, n)`` whose sender later
      rewound past it (the rewind's channel counter is <= n, which
      truncates the log entry) must be logged *again* after that rewind:
      piecewise-deterministic re-execution regenerated the identical
      send, and the receiver's lseq filter deduplicates the copy.
      A no-op for runs without ``mlog`` records.
    * **zero-rollback** -- replicated recovery never restores a
      checkpoint (failover is the whole point) except after an explicit
      fallback.  Checked per tenant, and gated on the tenant's ``repl.*``
      records (a no-op for the global and logged families).  A standby
      re-arm clones its lead's live storage and never runs the restore
      collectives, so any ``ckpt.restore.begin`` before the tenant's
      first ``repl.fallback`` (or without one) means a survivor was
      rolled back.  A ``repl.*`` record carries its ``job``; a restore
      carries only a node, and belongs to the tenant whose rank last
      reported an ``fmi.state`` from that node.
    * **tenant-isolation** (:meth:`tenant_isolation`, multi-tenant runs
      only) -- one tenant's failure stays that tenant's problem.  Kills
      injected through :class:`~repro.chaos.scenario.KillTenantSlot`
      tag their ``chaos.inject`` record with the victim's ``job_id``;
      from that tag and the ``job`` labels on the recovery streams,
      three teeth: a *bystander* (never targeted) ends at epoch 0, with
      no ``recovery.begin``, ``fmi.notify`` or ``overlay.notified``
      record of its own; every *targeted* tenant opened a recovery
      epoch of its own; and no tenant opens more recovery epochs than
      kills aimed at it (allocations are node-exclusive, so a
      neighbour's dead node is never mistaken for ours).
    """

    EVENTS = (
        "net.recv", "mpi.collective", "fmi.state", "fmi.notify",
        "recovery.begin", "chaos.inject", "node.crash", "overlay.suspect",
        "overlay.suspect.cleared", "overlay.notified", "mlog.log",
        "mlog.rewind", "ckpt.restore.begin", "repl.fallback", "repl.promote",
        "repl.replica_lost", "repl.standby.register", "repl.standby.sync",
    )

    def __init__(self) -> None:
        self._found: List[Violation] = []  # per-event, in trace order
        self._state_epoch: Dict[tuple, int] = {}  # (job, rank)
        self._notify_gen: Dict[tuple, int] = {}  # (job, rank, incarnation)
        self._deaths = self._recoveries = 0
        self._suspicions: Dict[tuple, float] = {}  # (job, rank, peer) -> ts
        self._log_times: Dict[tuple, List[float]] = {}  # (src, dst, n)
        self._delivered: Dict[tuple, None] = {}  # (src, dst, n)
        self._rewinds: List[tuple] = []  # (ts, rank, {dst: counter})
        # zero-rollback, per tenant: a node's tenant is the job whose
        # rank last reported an ``fmi.state`` from it
        self._owner: Dict[int, object] = {}  # node -> job
        self._replicated: Set = set()  # jobs with a repl.* record
        self._first_fallback: Dict[object, float] = {}  # job -> ts
        self._restores: List[tuple] = []  # (job, ckpt.restore.begin)
        self._per_job: Dict[tuple, int] = {}  # (what, job) -> count
        self._max_epoch: Dict[str, int] = {}

    # -- handlers: one per event name -------------------------------------
    def _tally(self, what: str, jid) -> None:
        if jid is not None:
            self._per_job[what, jid] = self._per_job.get((what, jid), 0) + 1

    def _on_net_recv(self, ev) -> None:
        args = ev.args
        if "ctx_epoch" in args and ev.epoch < args["ctx_epoch"]:
            self._found.append(Violation("no-stale-delivery", (
                f"rank {ev.rank} received an epoch-{ev.epoch} envelope "
                f"in an epoch-{args['ctx_epoch']} context at t={ev.ts:.6g}")))
        if "lseq" in args:
            self._delivered[tuple(args["lseq"])] = None

    # a macro collective instance is one delivery to all of its ranks
    _on_mpi_collective = _on_net_recv

    def _on_fmi_state(self, ev) -> None:
        jid = ev.args.get("job")
        prev = self._state_epoch.get((jid, ev.rank))
        if prev is not None and ev.epoch < prev:
            self._found.append(Violation("epoch-monotone", (
                f"job {jid} rank {ev.rank} state epoch went "
                f"{prev} -> {ev.epoch} at t={ev.ts:.6g}")))
        self._state_epoch[jid, ev.rank] = ev.epoch
        if jid is not None and ev.epoch > self._max_epoch.get(jid, 0):
            self._max_epoch[jid] = ev.epoch
        if ev.node is not None:
            self._owner[ev.node] = jid

    def _on_fmi_notify(self, ev) -> None:
        jid = ev.args.get("job")
        key = (jid, ev.rank, ev.incarnation)
        prev = self._notify_gen.get(key)
        if prev is not None and ev.epoch <= prev:
            self._found.append(Violation("epoch-monotone", (
                f"job {jid} rank {ev.rank} (inc {ev.incarnation}) notified "
                f"of generation {ev.epoch} after {prev} at t={ev.ts:.6g}")))
        self._notify_gen[key] = ev.epoch
        reason = root_reason(str(ev.args.get("reason", "")))
        if reason.startswith("partition:"):
            self._found.append(Violation("no-split-brain", (
                f"rank {ev.rank}{_context(ev)} acted on unconfirmed "
                f"partition event {reason!r} at t={ev.ts:.6g}")))
        if jid is not None and ev.epoch > self._max_epoch.get(jid, 0):
            self._max_epoch[jid] = ev.epoch

    def _on_recovery_begin(self, ev) -> None:
        self._recoveries += 1
        self._tally("recoveries", ev.args.get("job"))

    def _on_chaos_inject(self, ev) -> None:
        action = ev.args.get("action", "")
        if not takes_down(action):
            return
        # Process-only kills and drains cause recovery without a
        # node.crash trace; a node kill is counted at its node.crash.
        if action.startswith(("kill rank", "drain slot")):
            self._deaths += 1
        elif action.startswith("kill tenant"):
            self._tally("kills", ev.args.get("job"))

    def _on_node_crash(self, ev) -> None:
        self._deaths += 1

    def _on_overlay_suspect(self, ev) -> None:
        self._suspicions[ev.args.get("job"), ev.rank, ev.args.get("peer")] = ev.ts

    def _on_overlay_suspect_cleared(self, ev) -> None:
        self._suspicions.pop((ev.args.get("job"), ev.rank, ev.args.get("peer")), None)

    def _on_overlay_notified(self, ev) -> None:
        self._tally("notified", ev.args.get("job"))

    def _on_mlog_log(self, ev) -> None:
        key = (ev.rank, ev.args.get("dst"), ev.args.get("n"))
        self._log_times.setdefault(key, []).append(ev.ts)

    def _on_mlog_rewind(self, ev) -> None:
        counters = {int(d): n for d, n in ev.args.get("counters", {}).items()}
        self._rewinds.append((ev.ts, ev.rank, counters))

    def _on_ckpt_restore_begin(self, ev) -> None:
        self._restores.append((self._owner.get(ev.node), ev))

    def _on_repl_fallback(self, ev) -> None:
        self._first_fallback.setdefault(ev.args.get("job"), ev.ts)
        self._replicated.add(ev.args.get("job"))

    def _on_repl_promote(self, ev) -> None:
        self._replicated.add(ev.args.get("job"))

    _on_repl_replica_lost = _on_repl_standby_register = _on_repl_standby_sync = (
        _on_repl_promote)

    # -- verdicts -----------------------------------------------------------
    def violations(self) -> List[Violation]:
        """Every trace-invariant violation so far, grouped by invariant
        in :data:`TRACE_INVARIANTS` order, each group in trace order."""
        out = list(self._found)
        if self._recoveries > self._deaths:
            out.append(Violation("no-split-brain", (
                f"{self._recoveries} recovery epoch(s) opened for only "
                f"{self._deaths} real injected death(s)/drain(s)")))
        out += [Violation("suspicion-resolved", f"job {jid} rank {rank}'s suspicion "
                          f"of rank {peer} (raised t={ts:.6g}) was never resolved")
                for (jid, rank, peer), ts in self._suspicions.items()]
        # An orphan: a delivered message its sender's rewind truncated
        # from the log, logged before that rewind and never after it.
        for src, dst, n in (self._delivered if self._rewinds else ()):
            times = self._log_times.get((src, dst, n))
            if not times:
                continue  # never logged: an intra-unit channel
            for ts, rank, counters in self._rewinds:
                if rank != src or n < counters.get(dst, 0):
                    continue  # not this sender / survived the rewind
                if any(t < ts for t in times) and not any(t > ts for t in times):
                    out.append(Violation("no-orphans", (
                        f"message ({src}->{dst}, n={n}) was delivered, then "
                        f"rolled back by rank {src}'s rewind at t={ts:.6g}, "
                        f"and never re-logged: the receiver's state is an "
                        f"orphan of an unsent message")))
        for jid, ev in self._restores:
            fallback = self._first_fallback.get(jid)
            if jid in self._replicated and (fallback is None or ev.ts < fallback):
                why = (" although replication never fell back" if fallback is None
                       else f", before the first fallback at t={fallback:.6g}")
                out.append(Violation("zero-rollback", (
                    f"rank {ev.rank}{_context(ev, jid)} began a checkpoint "
                    f"restore at t={ev.ts:.6g}{why}")))
        out.sort(key=lambda v: TRACE_INVARIANTS.index(v.invariant))
        return out

    def tenant_isolation(self, jobs) -> List[Violation]:
        """The tenant-isolation verdict over ``jobs``, every co-resident
        job of the run."""
        out: List[str] = []
        for jid in [job.job_id for job in jobs]:
            kills = self._per_job.get(("kills", jid), 0)
            recoveries = self._per_job.get(("recoveries", jid), 0)
            if kills == 0:
                notified = self._per_job.get(("notified", jid), 0)
                for what, count in [("recovery epoch(s)", recoveries),
                                    ("detector notification(s)", notified)]:
                    if count:
                        out.append(f"bystander {jid} saw {count} {what} although "
                                   f"no kill targeted it")
                if self._max_epoch.get(jid, 0) > 0:
                    out.append(f"bystander {jid} reached epoch {self._max_epoch[jid]} "
                               f"although no kill targeted it")
            elif recoveries == 0:
                out.append(f"{jid} was targeted by {kills} kill(s) but never "
                           f"opened a recovery epoch of its own")
            elif recoveries > kills:
                out.append(f"{jid} opened {recoveries} recovery epoch(s) for "
                           f"only {kills} kill(s) aimed at it")
        return [Violation("tenant-isolation", detail) for detail in out]

    def verdict(self, jobs, results, reference, monitors) -> List[Violation]:
        """Every check over one finished run, from the events this
        machine has read.

        ``jobs``, ``results`` and ``monitors`` are per tenant, in the
        same order (a solo run passes one-element lists);
        ``results=None`` means the run never finished (the runner
        reports that as its own violation).  The trace invariants come
        once, the state checks and the answer check once per job --
        each violation they find names its tenant -- and
        tenant-isolation whenever there is more than one job.
        """
        out = self.violations()
        for idx, job in enumerate(jobs):
            found = check_posted_receives(job)
            found += check_link_accounting(job)
            found += check_detector_bounded(job, monitors[idx])
            if results is not None:
                found += check_answer(results[idx], reference)
            out += [Violation(v.invariant, f"{job.job_id}: {v.detail}") for v in found]
        if len(jobs) > 1:
            out += self.tenant_isolation(jobs)
        return out


# ---------------------------------------------------------- state checkers
def check_posted_receives(job) -> List[Violation]:
    """Every posted receive was matched or cancelled.

    Swept over *all* contexts the job's transport ever created: live
    contexts must have drained (their ranks finished); contexts of dead
    incarnations must have been closed or sit on dead nodes.
    """
    out: List[Violation] = []
    for ctx in job.transport.contexts:
        if ctx.closed or not ctx.node.alive:
            continue
        pending = ctx.matching.pending_posted
        if pending:
            out.append(Violation(
                "posted-receives",
                f"context {ctx.label} (addr {ctx.addr}) still has "
                f"{pending} pending posted receive(s) at job end",
            ))
    return out


class DetectorMonitor:
    """Samples every joined rank's overlay edges during a run.

    The boundedness invariant cannot be checked only at job end -- every
    rank's ``leave()`` drops its own edges, so the final view is empty
    even with an accumulation bug present.  Instead the monitor samples
    every ``sample_dt`` simulated seconds and records the largest
    per-rank edge count seen (it must stay within ``2 x out-degree``: a
    rank's incoming plus outgoing log-ring edges).  A closed connection
    is never among them: the detector's edges are the connection
    manager's index, which unlists a connection as it closes it.
    """

    #: simulated seconds between two samples
    sample_dt = 0.25

    def __init__(self, job):
        self.job = job
        self.max_entries = 0

    def start(self) -> None:
        self.job.sim.spawn(self._run(), name="chaos.detector-monitor")

    def _run(self):
        sim = self.job.sim
        while not self.job.finished:
            self.sample()
            yield sim.timeout(self.sample_dt)

    def sample(self) -> None:
        detector = self.job.detector
        for rank in detector._joined_epoch:
            self.max_entries = max(self.max_entries, len(detector.edges(rank)))


def check_detector_bounded(job, monitor: DetectorMonitor) -> List[Violation]:
    """Every rank's overlay edges stayed within ``2 x out-degree``."""
    bound = 2 * job.detector.connections_per_rank(job.num_ranks)
    if monitor.max_entries > bound:
        return [Violation(
            "detector-bounded",
            f"a rank's overlay reached {monitor.max_entries} "
            f"edges (log-ring bound: {bound})",
        )]
    return []


def check_link_accounting(job) -> List[Violation]:
    """No lost or fabricated messages at the gray-failure layer: none
    still parked at a healed partition cut, and no more duplicates
    suppressed than the fault model injected."""
    out: List[Violation] = []
    transport = job.transport
    if transport._stalled and not job.machine.fabric.partitioned:
        out.append(Violation(
            "link-accounting",
            f"{len(transport._stalled)} message(s) still parked at a "
            f"partition cut although the fabric is healed",
        ))
    if transport.dup_dropped > transport.omission_dups:
        out.append(Violation(
            "link-accounting",
            f"suppressed {transport.dup_dropped} duplicate(s) but the "
            f"fault model only injected {transport.omission_dups}",
        ))
    return out


# -------------------------------------------------------------- the answer
def check_answer(results: Sequence, reference: Sequence) -> List[Violation]:
    """Per-rank results must be *bit-equal* to the failure-free run."""
    out: List[Violation] = []
    if len(results) != len(reference):
        return [Violation(
            "answer",
            f"{len(results)} results vs {len(reference)} in the reference",
        )]
    for rank, (got, want) in enumerate(zip(results, reference)):
        if isinstance(want, np.ndarray):
            same = isinstance(got, np.ndarray) and np.array_equal(got, want)
        else:
            same = got == want
        if not same:
            out.append(Violation(
                "answer",
                f"rank {rank}: {got!r} != failure-free {want!r}",
            ))
    return out
