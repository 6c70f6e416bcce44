"""Runtime-wide invariants checked after (and during) every chaos run.

Each checker consumes the observability streams -- the trace, the
metrics, and a handful of public runtime counters -- and returns a list
of :class:`Violation` s (empty = green):

* **epoch-monotone** -- per rank, the recovery epoch stamped on
  ``fmi.state`` transitions never decreases, and ``fmi.notify``
  generations are strictly increasing per incarnation.
* **no-stale-delivery** -- every ``net.recv`` carries the receiving
  context's epoch (``ctx_epoch``); a delivery with an envelope epoch
  older than its context would mean the transport's epoch filter
  (Section IV-D) was bypassed.
* **posted-receives** -- at job end, every context that is still live
  has no pending (un-triggered) posted receive: each posted receive was
  either matched or cancelled by a recovery reset; superseded contexts
  must have been closed.
* **detector-bounded** -- the log-ring connection table holds at most
  ``2 x out-degree`` entries per rank, and no *closed* connection
  lingers in it longer than the ibverbs close delay allows
  (:class:`DetectorMonitor` samples during the run, since the table is
  legitimately empty once every rank has left).
* **answer** -- the application's per-rank results are bit-equal to the
  failure-free reference run.

Gray-failure invariants:

* **no-split-brain** -- a network partition alone must never be treated
  as a failure: no rank may act on a partition-rooted notification that
  was not out-of-band confirmed, and the number of recovery epochs must
  not exceed the number of *real* injected deaths/drains (a partition
  that triggered recovery on both sides would double it).
* **suspicion-resolved** -- every ``overlay.suspect`` the detector
  raises is eventually cleared (peer alive, healed, dead, or the rank
  left); an unresolved suspicion is a leaked timer or a lost decision.
* **link-accounting** -- after the run, no message is still parked at a
  healed partition cut, and the receiver never suppressed more
  duplicates than the fault model injected.

Replication invariant:

* **zero-rollback** -- a replicated run (any ``repl.*`` trace event)
  must never restore a checkpoint: failover promotes a live copy in
  place.  The only legal restores are at/after an explicit
  ``repl.fallback`` (every copy of some rank died).

Multi-tenant invariant (shared-cluster runs: more than one job):

* **tenant-isolation** -- a kill aimed at one tenant is invisible to
  every other tenant: bystanders end at epoch 0 with zero detector
  notifications, targeted tenants each recover through their *own*
  epochs, and nobody opens more epochs than kills aimed at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.overlay import root_reason

__all__ = [
    "Violation", "DetectorMonitor",
    "check_epoch_monotone", "check_no_stale_delivery",
    "check_posted_receives", "check_detector_bounded", "check_answer",
    "check_no_split_brain", "check_suspicion_resolved",
    "check_link_accounting", "check_no_orphans", "check_zero_rollback",
    "check_tenant_isolation", "check_all",
]


@dataclass(frozen=True)
class Violation:
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


# ----------------------------------------------------------- trace checkers
def check_epoch_monotone(tracer) -> List[Violation]:
    """Recovery epochs never run backwards, per (tenant, rank).

    Keyed by the ``job`` label the runtime stamps on every ``fmi.*``
    event: on a shared cluster two tenants legitimately run the same
    rank numbers at unrelated epochs, and only same-tenant regressions
    are bugs.
    """
    out: List[Violation] = []
    last_state_epoch: Dict[tuple, int] = {}
    last_notify_gen: Dict[tuple, int] = {}
    for ev in tracer.events:
        if ev.name == "fmi.state":
            key = (ev.args.get("job"), ev.rank)
            prev = last_state_epoch.get(key)
            if prev is not None and ev.epoch < prev:
                out.append(Violation(
                    "epoch-monotone",
                    f"job {key[0]} rank {ev.rank} state epoch went "
                    f"{prev} -> {ev.epoch} at t={ev.ts:.6g}",
                ))
            last_state_epoch[key] = ev.epoch
        elif ev.name == "fmi.notify":
            key = (ev.args.get("job"), ev.rank, ev.incarnation)
            prev = last_notify_gen.get(key)
            if prev is not None and ev.epoch <= prev:
                out.append(Violation(
                    "epoch-monotone",
                    f"job {key[0]} rank {ev.rank} (inc {ev.incarnation}) "
                    f"notified of generation {ev.epoch} after {prev} "
                    f"at t={ev.ts:.6g}",
                ))
            last_notify_gen[key] = ev.epoch
    return out


def check_no_stale_delivery(tracer) -> List[Violation]:
    """No envelope from an older epoch was delivered into a context."""
    out: List[Violation] = []
    for ev in tracer.events:
        if ev.name != "net.recv":
            continue
        ctx_epoch = ev.args.get("ctx_epoch")
        if ctx_epoch is not None and ev.epoch < ctx_epoch:
            out.append(Violation(
                "no-stale-delivery",
                f"rank {ev.rank} received an epoch-{ev.epoch} envelope "
                f"in an epoch-{ctx_epoch} context at t={ev.ts:.6g}",
            ))
    return out


def check_no_orphans(tracer) -> List[Violation]:
    """Partial rollback never leaves an orphan receive behind.

    An *orphan* is a process whose state depends on a message its
    sender's rollback "unsent" and that the system can no longer
    account for.  Under sender-based logging the accounting obligation
    is: every logged channel message ``(src, dst, n)`` whose sender
    later rewound past it (the rewind's channel counter is <= n, which
    truncates the log entry) must be logged *again* after that rewind
    -- piecewise-deterministic re-execution regenerated the identical
    send, and the receiver's lseq filter deduplicates the copy.
    No-op for runs without mlog events (global recovery plane).
    """
    # (src, dst, n) -> send-log timestamps, in trace order
    log_times: Dict[tuple, List[float]] = {}
    # (src, dst, n) -> delivered at least once
    delivered: set = set()
    # sender rewinds: (ts, rank, {dst: counter})
    rewinds: List[tuple] = []
    for ev in tracer.events:
        if ev.name == "mlog.log":
            key = (ev.rank, ev.args.get("dst"), ev.args.get("n"))
            log_times.setdefault(key, []).append(ev.ts)
        elif ev.name == "mlog.rewind":
            counters = {
                int(d): n for d, n in ev.args.get("counters", {}).items()
            }
            rewinds.append((ev.ts, ev.rank, counters))
        elif ev.name == "net.recv":
            lseq = ev.args.get("lseq")
            if lseq is not None:
                delivered.add(tuple(lseq))
    if not rewinds:
        return []
    out: List[Violation] = []
    for key in delivered:
        times = log_times.get(key)
        if not times:
            continue  # never logged: an intra-unit channel
        src, dst, n = key
        for ts, rank, counters in rewinds:
            if rank != src or n < counters.get(dst, 0):
                continue  # not this sender / survived the rewind
            if not any(t < ts for t in times):
                continue  # first logged after this rewind
            if not any(t > ts for t in times):
                out.append(Violation(
                    "no-orphans",
                    f"message ({src}->{dst}, n={n}) was delivered, then "
                    f"rolled back by rank {src}'s rewind at t={ts:.6g}, "
                    f"and never re-logged: the receiver's state is an "
                    f"orphan of an unsent message",
                ))
    return out


def check_zero_rollback(tracer) -> List[Violation]:
    """Replicated recovery never restores a checkpoint -- failover is
    the whole point -- except after an explicit fallback.

    Gated on the presence of ``repl.*`` trace events, all of category
    ``repl`` (a no-op for the global and logged families).  A standby
    re-arm clones its lead's live storage directly and never runs the
    restore collectives, so any ``ckpt.restore.begin`` before the first
    ``repl.fallback`` (or without one at all) means a survivor was
    rolled back.
    """
    replicated = False
    first_fallback: Optional[float] = None
    restores: List = []
    for ev in tracer.events:
        if ev.cat == "repl":
            replicated = True
            if ev.name == "repl.fallback" and first_fallback is None:
                first_fallback = ev.ts
        elif ev.name == "ckpt.restore.begin":
            restores.append(ev)
    if not replicated:
        return []
    out: List[Violation] = []
    for ev in restores:
        if first_fallback is None:
            out.append(Violation(
                "zero-rollback",
                f"rank {ev.rank} began a checkpoint restore at "
                f"t={ev.ts:.6g} although replication never fell back",
            ))
        elif ev.ts < first_fallback:
            out.append(Violation(
                "zero-rollback",
                f"rank {ev.rank} began a checkpoint restore at "
                f"t={ev.ts:.6g}, before the first fallback at "
                f"t={first_fallback:.6g}",
            ))
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
    """Samples the log-ring detector's connection table during a run.

    The boundedness invariant cannot be checked only at job end -- every
    rank's ``leave()`` empties its own list, so the final table is empty
    even with the accumulation bug present.  Instead the monitor samples
    every ``sample_dt`` simulated seconds and records:

    * the largest per-rank entry count seen (must stay within
      ``2 x out-degree``: a rank's incoming plus outgoing log-ring
      edges);
    * any *closed* connection that stays in the table longer than
      ``grace`` seconds.  Transiently-closed entries are legal (a node
      death closes edges ~0.2 s before the detector hears the ibverbs
      event); a closed entry that survives past the grace window is the
      neighbour-list leak.
    """

    def __init__(self, job, sample_dt: float = 0.25, grace: float = 1.0):
        self.job = job
        self.sample_dt = sample_dt
        self.grace = grace
        self.samples = 0
        self.max_entries = 0
        self._stale_first_seen: Dict[int, float] = {}
        self.violations: List[Violation] = []

    def start(self) -> None:
        self.job.sim.spawn(self._run(), name="chaos.detector-monitor")

    def _run(self):
        sim = self.job.sim
        while not self.job.finished:
            self.sample()
            yield sim.timeout(self.sample_dt)

    def sample(self) -> None:
        self.samples += 1
        now = self.job.sim.now
        seen_stale = set()
        for rank, conns in self.job.detector._conns.items():
            self.max_entries = max(self.max_entries, len(conns))
            rproc = self.job.rank_procs.get(rank)
            if rproc is None or not rproc.alive:
                # A dead rank's list is garbage-collected when its
                # replacement rejoins; nobody is alive to hear its
                # disconnect events meanwhile.  The leak this monitor
                # hunts is closed entries in *live* ranks' lists.
                continue
            for conn in conns:
                if conn.open:
                    continue
                seen_stale.add(id(conn))
                first = self._stale_first_seen.setdefault(id(conn), now)
                if now - first > self.grace:
                    self.violations.append(Violation(
                        "detector-bounded",
                        f"closed connection {conn.ends} still in rank "
                        f"{rank}'s table {now - first:.3g}s after it was "
                        f"first seen closed (t={now:.6g})",
                    ))
                    seen_stale.discard(id(conn))  # report once
        self._stale_first_seen = {
            k: v for k, v in self._stale_first_seen.items() if k in seen_stale
        }


def check_detector_bounded(job, monitor: DetectorMonitor) -> List[Violation]:
    out = list(monitor.violations)
    bound = 2 * job.detector.connections_per_rank(job.num_ranks)
    if monitor.max_entries > bound:
        out.append(Violation(
            "detector-bounded",
            f"a rank's connection table reached {monitor.max_entries} "
            f"entries (log-ring bound: {bound})",
        ))
    return out


# ------------------------------------------------------- gray-failure checks
def check_no_split_brain(tracer) -> List[Violation]:
    """A partition alone must never drive recovery.

    Two teeth: (1) no ``fmi.notify`` whose root reason is a raw
    ``partition:`` event -- the detector must hold such events as
    suspicions and only act after out-of-band confirmation
    (``confirmed:...``); (2) the job never opens more recovery epochs
    than real deaths/drains were injected, so a cut observed on both
    sides cannot silently double the recovery count.
    """
    out: List[Violation] = []
    deaths = 0
    recoveries = 0
    for ev in tracer.events:
        if ev.name == "node.crash":
            deaths += 1
        elif ev.name == "chaos.inject":
            action = ev.args.get("action", "")
            # Process-only kills and drains cause recovery without a
            # node.crash trace; refused/no-op records do not count.
            if (
                (action.startswith("kill rank") or action.startswith("drain slot"))
                and "refused" not in action
                and "already dead" not in action
            ):
                deaths += 1
        elif ev.name == "recovery.begin":
            recoveries += 1
        elif ev.name == "fmi.notify":
            reason = root_reason(str(ev.args.get("reason", "")))
            if reason.startswith("partition:"):
                out.append(Violation(
                    "no-split-brain",
                    f"rank {ev.rank} acted on unconfirmed partition event "
                    f"{reason!r} at t={ev.ts:.6g}",
                ))
    if recoveries > deaths:
        out.append(Violation(
            "no-split-brain",
            f"{recoveries} recovery epoch(s) opened for only {deaths} "
            f"real injected death(s)/drain(s)",
        ))
    return out


def check_suspicion_resolved(tracer) -> List[Violation]:
    """Every raised suspicion is eventually cleared (per tenant)."""
    pending: Dict[tuple, float] = {}
    for ev in tracer.events:
        if ev.name == "overlay.suspect":
            pending[(ev.args.get("job"), ev.rank, ev.args.get("peer"))] = ev.ts
        elif ev.name == "overlay.suspect.cleared":
            pending.pop(
                (ev.args.get("job"), ev.rank, ev.args.get("peer")), None
            )
    return [
        Violation(
            "suspicion-resolved",
            f"job {jid} rank {rank}'s suspicion of rank {peer} "
            f"(raised t={ts:.6g}) was never resolved",
        )
        for (jid, rank, peer), ts in pending.items()
    ]


def check_link_accounting(job) -> List[Violation]:
    """No lost or fabricated messages at the gray-failure layer."""
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


# --------------------------------------------------------- tenant isolation
def check_tenant_isolation(tracer, jobs) -> List[Violation]:
    """One tenant's failure stays that tenant's problem.

    Multi-tenant runs only (``jobs`` is every co-resident job).  Kills
    injected through :class:`~repro.chaos.scenario.KillTenantSlot` tag
    their ``chaos.inject`` record with the victim's ``job_id``; from
    that tag and the per-tenant ``job`` labels on the recovery streams,
    three teeth:

    * a *bystander* (tenant never targeted) must end with epoch 0 --
      zero ``recovery.begin``, zero ``fmi.notify``, zero detector
      ``overlay.notified`` events carry its id (no cross-tenant epoch
      bumps, no detector split-brain);
    * every *targeted* tenant opened at least one recovery epoch of its
      own (it recovered independently rather than riding another
      tenant's recovery);
    * no tenant opens more recovery epochs than kills aimed at it
      (allocations are node-exclusive, so a neighbour's dead node can
      never be mistaken for ours).
    """
    kills: Dict[str, int] = {}
    recoveries: Dict[str, int] = {}
    notified: Dict[str, int] = {}
    max_epoch: Dict[str, int] = {}
    for ev in tracer.events:
        jid = ev.args.get("job")
        if ev.name == "chaos.inject":
            action = ev.args.get("action", "")
            if (jid is not None and action.startswith("kill tenant")
                    and "already dead" not in action):
                kills[jid] = kills.get(jid, 0) + 1
        elif ev.name == "recovery.begin" and jid is not None:
            recoveries[jid] = recoveries.get(jid, 0) + 1
        elif ev.name == "overlay.notified" and jid is not None:
            notified[jid] = notified.get(jid, 0) + 1
        elif ev.name in ("fmi.state", "fmi.notify") and jid is not None:
            max_epoch[jid] = max(max_epoch.get(jid, 0), ev.epoch)
    out: List[Violation] = []
    for job in jobs:
        jid = job.job_id
        if kills.get(jid, 0) == 0:
            for what, count in [
                ("recovery epoch(s)", recoveries.get(jid, 0)),
                ("detector notification(s)", notified.get(jid, 0)),
            ]:
                if count:
                    out.append(Violation(
                        "tenant-isolation",
                        f"bystander {jid} saw {count} {what} although no "
                        f"kill targeted it",
                    ))
            if max_epoch.get(jid, 0) > 0:
                out.append(Violation(
                    "tenant-isolation",
                    f"bystander {jid} reached epoch {max_epoch[jid]} "
                    f"although no kill targeted it",
                ))
        else:
            if recoveries.get(jid, 0) == 0:
                out.append(Violation(
                    "tenant-isolation",
                    f"{jid} was targeted by {kills[jid]} kill(s) but never "
                    f"opened a recovery epoch of its own",
                ))
            if recoveries.get(jid, 0) > kills[jid]:
                out.append(Violation(
                    "tenant-isolation",
                    f"{jid} opened {recoveries[jid]} recovery epoch(s) for "
                    f"only {kills[jid]} kill(s) aimed at it",
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


# ------------------------------------------------------------------ driver
def check_all(
    jobs: Sequence,
    tracer,
    results: Optional[Sequence[Sequence]],
    reference: Sequence,
    monitors: Sequence[DetectorMonitor],
) -> List[Violation]:
    """Run every checker over one finished run.

    ``jobs``, ``results`` and ``monitors`` are per tenant, in the same
    order (a solo run passes one-element lists); ``results=None`` means
    the run never finished (already reported by the runner as its own
    violation).  The trace-level checkers run once over the merged
    trace, the state checkers and the answer check once per job -- each
    violation they find names its tenant -- and the tenant-isolation
    invariant whenever there is more than one.
    """
    out: List[Violation] = []
    out += check_epoch_monotone(tracer)
    out += check_no_stale_delivery(tracer)
    out += check_no_split_brain(tracer)
    out += check_suspicion_resolved(tracer)
    out += check_no_orphans(tracer)
    out += check_zero_rollback(tracer)
    for idx, job in enumerate(jobs):
        found = check_posted_receives(job)
        found += check_link_accounting(job)
        found += check_detector_bounded(job, monitors[idx])
        if results is not None:
            found += check_answer(results[idx], reference)
        out += [
            Violation(v.invariant, f"{job.job_id}: {v.detail}") for v in found
        ]
    if len(jobs) > 1:
        out += check_tenant_isolation(tracer, jobs)
    return out
