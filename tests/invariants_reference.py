"""The trace invariants as seven separate post-run walks: the oracle.

Before the invariants became one state machine fed event by event
(:class:`repro.chaos.invariants.TraceInvariants`), each trace invariant
was its own function walking the whole recorded trace.  Those seven
functions are kept here verbatim, as an independent statement of what
every invariant means: ``tests/test_invariants_oracle.py`` feeds the
same drawn traces to the machine, online and replayed, and to these
walks, and asserts that all three find the same violations.  Tests
only; nothing in ``src`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chaos.invariants import Violation
from repro.net.overlay import root_reason


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
