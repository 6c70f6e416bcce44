"""The run report as five separate post-run walks: the oracle.

Before the report became one machine fed event by event
(:class:`repro.obs.summary.TraceSummary`), each of its quantities was
computed by its own function walking the whole recorded trace.  Those
five functions (and their helpers) are kept here verbatim but for their
names, ``*_walk``: ``tests/test_summary_oracle.py`` feeds the same drawn
traces to the machine, online and replayed, and to these walks, and
asserts that all three readings agree.  The walks know nothing of
tenants, so the test runs them over each tenant's events.  Tests only;
nothing in ``src`` imports this module.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.tracer import TraceEvent, Tracer

EventSource = Union[Tracer, Iterable[TraceEvent]]


def _events(source: EventSource) -> List[TraceEvent]:
    evs = source.events if isinstance(source, Tracer) else list(source)
    return list(evs)


def _dist(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics of a duration sample."""
    if not values:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0}
    ordered = sorted(values)
    mid = ordered[max(0, min(len(ordered) - 1, int(round(0.5 * (len(ordered) - 1)))))]
    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": mid,
    }


# -------------------------------------------------------------- notification
def notification_walk(source: EventSource) -> Dict[int, Dict[str, Any]]:
    """Per-generation log-ring notification statistics.

    Keys are recovery generations (the epoch each failure leads to);
    each value reports the survivor count reached, the hop histogram
    ``{hop: ranks}``, the worst-case hop, and -- when the trace holds
    the failure event -- the time from failure to the last survivor's
    notification (Fig 13's y-axis).
    """
    events = _events(source)
    crash_times = [ev.ts for ev in events
                   if ev.cat == "failure" and ev.name == "node.crash"]
    if not crash_times:
        crash_times = [ev.ts for ev in events
                       if ev.cat == "failure" and ev.name == "failure.inject"]
    out: Dict[int, Dict[str, Any]] = {}
    for ev in events:
        if ev.cat != "overlay" or ev.name != "overlay.notified":
            continue
        gen = ev.epoch if ev.epoch is not None else 0
        entry = out.setdefault(gen, {"count": 0, "hops": {}, "times": []})
        entry["count"] += 1
        hop = int(ev.args.get("hop", 0))
        entry["hops"][hop] = entry["hops"].get(hop, 0) + 1
        entry["times"].append(ev.ts)
    for gen, entry in out.items():
        times = entry.pop("times")
        entry["first"] = min(times)
        entry["last"] = max(times)
        entry["max_hop"] = max(entry["hops"]) if entry["hops"] else 0
        # The failure that opened this generation: the newest failure
        # event at or before the first notification.
        origin = max((t for t in crash_times if t <= entry["first"]), default=None)
        entry["failure_at"] = origin
        entry["latency"] = None if origin is None else entry["last"] - origin
    return out


# ---------------------------------------------------------------- checkpoint
def checkpoint_walk(source: EventSource) -> Dict[str, Dict[str, float]]:
    """Duration distributions of every ``ckpt.*`` span, keyed by name.

    ``ckpt.checkpoint`` is directly comparable to the Section V-B model
    (Fig 10); ``ckpt.encode`` isolates the ring-pipelined XOR transfer;
    ``ckpt.restore`` matches the restart model (Fig 11).
    """
    by_name: Dict[str, List[float]] = {}
    for ev in _events(source):
        if ev.cat == "ckpt" and ev.ph == "X":
            by_name.setdefault(ev.name, []).append(ev.dur or 0.0)
    return {name: _dist(durs) for name, durs in sorted(by_name.items())}


# ------------------------------------------------------------------ recovery
def recovery_walk(source: EventSource) -> List[Dict[str, Any]]:
    """Per-epoch recovery windows (failure epoch bump -> all ranks back
    in H3), in trace order."""
    out = []
    for ev in _events(source):
        if ev.cat == "recovery" and ev.name == "recovery" and ev.ph == "X":
            out.append({
                "epoch": ev.epoch,
                "start": ev.ts,
                "duration": ev.dur,
                "cause": ev.args.get("cause", ""),
            })
    return out


def _dwell_samples(events: List[TraceEvent]) -> Dict[str, List[float]]:
    """Per state, every dwell between consecutive ``fmi.state`` instants
    of one ``(job, rank, incarnation)``."""
    per_proc: Dict[Any, List[TraceEvent]] = {}
    for ev in events:
        if ev.cat == "state" and ev.name == "fmi.state":
            key = (ev.args.get("job"), ev.rank, ev.incarnation)
            per_proc.setdefault(key, []).append(ev)
    dwell: Dict[str, List[float]] = {}
    for transitions in per_proc.values():
        transitions.sort(key=lambda e: e.ts)
        for cur, nxt in zip(transitions, transitions[1:]):
            state = str(cur.args.get("state", "?"))
            dwell.setdefault(state, []).append(nxt.ts - cur.ts)
    return dwell


def dwell_walk(source: EventSource) -> Dict[str, Dict[str, float]]:
    """How long rank incarnations dwell in each state (H1, H2, H3).

    Computed from consecutive ``fmi.state`` instants of the same
    ``(job, rank, incarnation)``; the final state of each incarnation
    has no successor and is excluded.
    """
    dwell = _dwell_samples(_events(source))
    return {state: _dist(vals) for state, vals in sorted(dwell.items())}


# ----------------------------------------------------------------------- run
def run_walk(source: EventSource) -> Dict[str, Any]:
    """The run at a glance: ranks, span, checkpoint rounds, recoveries
    (each with its latency and cause) and the H3 share of live
    rank-time (the time ranks spent in H1, H2 or H3)."""
    events = _events(source)
    ranks = len({(ev.args.get("job"), ev.rank) for ev in events
                 if ev.cat == "state" and ev.name == "fmi.state"})
    checkpoints = sum(1 for ev in events if ev.cat == "ckpt"
                      and ev.name == "ckpt.checkpoint" and ev.ph == "X")
    dwell = _dwell_samples(events)
    live = sum(sum(dwell.get(state, ())) for state in ("H1", "H2", "H3"))
    return {
        "ranks": ranks,
        "span": (max(ev.ts + (ev.dur or 0.0) for ev in events)
                 - min(ev.ts for ev in events)) if events else 0.0,
        "checkpoint_rounds": checkpoints // ranks if ranks else 0,
        "recoveries": recovery_walk(events),
        "h3_share": sum(dwell.get("H3", ())) / live if live else 0.0,
    }
