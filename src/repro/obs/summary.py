"""Post-run trace reports: the quantities the paper plots.

:class:`TraceSummary` reads a trace through one handler per event name,
the :class:`~repro.obs.tracer.TraceReader` protocol the chaos invariants
use too; :func:`summarize` replays a tracer, a list of events or a
loaded JSONL file through it.  The machine then answers with
failure-notification hops and latency per tenant and generation
(Figures 8 & 13), checkpoint/restore phase durations (Figures 10-12),
H1/H2/H3 dwell times (Figure 5), and the run: ranks, checkpoint rounds,
each tenant's recovery windows and the H3 share of live rank-time.

Run it directly on an exported trace::

    PYTHONPATH=src python -m repro.obs.summary trace.jsonl
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.export import EventSource, _events, read_jsonl
from repro.obs.tracer import TraceReader

__all__ = ["TraceSummary", "summarize", "report", "main"]

#: the checkpoint engine's spans; ``ckpt.checkpoint`` is comparable to
#: the Section V-B model (Fig 10), ``ckpt.restore`` to the restart
#: model (Fig 11), and ``ckpt.encode`` isolates the ring-pipelined XOR
CKPT_SPANS = tuple("ckpt." + phase for phase in (
    "snapshot", "encode", "parity_store", "meta", "checkpoint", "restore",
    "rebuild"))


def _dist(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics of a duration sample (all zero when empty)."""
    ordered = sorted(values) or [0.0]
    return {"count": len(values), "mean": sum(ordered) / len(ordered),
            "min": ordered[0], "max": ordered[-1]}


class TraceSummary(TraceReader):
    """The run report as one machine, fed event by event in trace
    order, where instants are in time order (as a tracer records them)."""

    EVENTS = ("fmi.state", "overlay.notified", "node.crash", "failure.inject",
              "recovery") + CKPT_SPANS

    def __init__(self) -> None:
        #: the whole-trace reads, filled in by :func:`summarize`
        self.span = 0.0
        self.count = 0
        self._states: Dict[tuple, list] = {}  # (job, rank, incarnation)
        self._notified: Dict[tuple, Dict[str, Any]] = {}  # (job, generation)
        self._failures: Dict[tuple, List[float]] = {}  # (name, job) -> times
        self._owner: Dict[int, Any] = {}  # node -> job of its last fmi.state
        self._spans: Dict[str, List[float]] = {}  # ckpt span -> durations
        self._recoveries: List[Dict[str, Any]] = []

    # -- handlers: one per event name -------------------------------------
    def _on_fmi_state(self, ev) -> None:
        job = ev.args.get("job")
        self._states.setdefault((job, ev.rank, ev.incarnation), []).append(ev)
        if ev.node is not None:
            self._owner[ev.node] = job

    def _on_overlay_notified(self, ev) -> None:
        key = (ev.args.get("job"), ev.epoch if ev.epoch is not None else 0)
        entry = self._notified.setdefault(
            key, {"count": 0, "hops": {}, "first": ev.ts, "last": ev.ts})
        entry["count"] += 1
        hop = int(ev.args.get("hop", 0))
        entry["hops"][hop] = entry["hops"].get(hop, 0) + 1
        entry["last"] = ev.ts

    def _on_node_crash(self, ev) -> None:
        # A node does not know its tenant: the crash is the job's whose
        # rank last reported a state from it (unlabelled if none did).
        self._failures.setdefault((ev.name, self._owner.get(ev.node)),
                                  []).append(ev.ts)

    def _on_failure_inject(self, ev) -> None:
        self._failures.setdefault((ev.name, ev.args.get("job")), []).append(ev.ts)

    def _on_recovery(self, ev) -> None:
        self._recoveries.append({
            "job": ev.args.get("job"),
            "epoch": ev.epoch,
            "start": ev.ts,
            "duration": ev.dur,
            "cause": ev.args.get("cause", ""),
        })

    def _on_ckpt_checkpoint(self, ev) -> None:
        self._spans.setdefault(ev.name, []).append(ev.dur or 0.0)

    _on_ckpt_snapshot = _on_ckpt_encode = _on_ckpt_parity_store = _on_ckpt_checkpoint
    _on_ckpt_meta = _on_ckpt_restore = _on_ckpt_rebuild = _on_ckpt_checkpoint

    # -- the report's quantities --------------------------------------------
    def notification(self) -> Dict[tuple, Dict[str, Any]]:
        """Log-ring notification statistics per ``(job, generation)``.

        A generation is the epoch a failure leads to; each value reports
        the survivor count reached, the hop histogram ``{hop: ranks}``,
        the worst-case hop, and -- when the trace holds the failure
        event -- the time from failure to the last survivor's
        notification (Fig 13's y-axis).  A job's failures are its own
        and the unlabelled ones: every ``node.crash``, else (when there
        is none) every ``failure.inject``.  A crash is the job's whose
        ``fmi.state`` last named the node; an injection names its job.
        """
        out = {}
        for (jid, gen), entry in sorted(self._notified.items(),
                                        key=lambda kv: (kv[0][0] or "", kv[0][1])):
            # The failure that opened this generation: the newest
            # failure event at or before the first notification.
            origin = max((t for t in self._failure_times(jid) if t <= entry["first"]),
                         default=None)
            out[jid, gen] = {
                **entry, "hops": dict(entry["hops"]), "max_hop": max(entry["hops"]),
                "failure_at": origin,
                "latency": None if origin is None else entry["last"] - origin,
            }
        return out

    def _failure_times(self, jid) -> List[float]:
        for name in ("node.crash", "failure.inject"):
            times = [t for owner in {None, jid}
                     for t in self._failures.get((name, owner), ())]
            if times:
                return times
        return []

    def checkpoint(self) -> Dict[str, Dict[str, float]]:
        """Duration distributions of every ``ckpt.*`` span, by name."""
        return {name: _dist(durs) for name, durs in sorted(self._spans.items())}

    def _dwell_samples(self) -> Dict[str, List[float]]:
        dwell: Dict[str, List[float]] = {}
        for transitions in self._states.values():
            for cur, nxt in zip(transitions, transitions[1:]):
                state = str(cur.args.get("state", "?"))
                dwell.setdefault(state, []).append(nxt.ts - cur.ts)
        return dwell

    def dwell(self) -> Dict[str, Dict[str, float]]:
        """How long rank incarnations dwell in each state (H1, H2, H3),
        from consecutive ``fmi.state`` instants of one ``(job, rank,
        incarnation)``; an incarnation's final state is excluded."""
        return {state: _dist(vals)
                for state, vals in sorted(self._dwell_samples().items())}

    def run(self) -> Dict[str, Any]:
        """The run at a glance: ranks, checkpoint rounds, each tenant's
        recovery windows (failure epoch bump -> all ranks back in H3) in
        trace order, and the H3 share of live rank-time (time spent in
        H1, H2 or H3)."""
        ranks = len({(jid, rank) for jid, rank, _inc in self._states})
        dwell = self._dwell_samples()
        live = sum(sum(dwell.get(state, ())) for state in ("H1", "H2", "H3"))
        checkpoints = len(self._spans.get("ckpt.checkpoint", ()))
        return {
            "ranks": ranks,
            "checkpoint_rounds": checkpoints // ranks if ranks else 0,
            "recoveries": list(self._recoveries),
            "h3_share": sum(dwell.get("H3", ())) / live if live else 0.0,
        }


def summarize(source: EventSource) -> TraceSummary:
    """Replay ``source`` through a :class:`TraceSummary`; the event
    count and the span (first start to last end) are the whole-trace
    reads no by-name handler can make."""
    events = _events(source)
    summary = TraceSummary().replay(events)
    summary.count = len(events)
    if events:
        summary.span = max(ev.end for ev in events) - min(ev.ts for ev in events)
    return summary


# -------------------------------------------------------------------- report
def _dist_rows(dists: Dict[str, Dict[str, float]]) -> List[tuple]:
    return [(name, d["count"], d["mean"], d["min"], d["max"])
            for name, d in dists.items()]


def report(source: EventSource) -> str:
    """Human-readable multi-table report over a whole trace."""
    from repro.analysis.tables import Table

    summary = summarize(source)
    run = summary.run()
    tables = [
        ("Run", ["metric", "value"], [
            ("ranks", run["ranks"]),
            ("span (s)", summary.span),
            ("checkpoint rounds", run["checkpoint_rounds"]),
            ("recoveries", len(run["recoveries"])),
            ("H3 share of live rank-time", run["h3_share"]),
        ] if run["ranks"] else []),
        ("Failure notification (log-ring cascade)",
         ["job", "gen", "survivors", "max hop", "hop histogram", "latency (s)"],
         [(jid or "-", gen, e["count"], e["max_hop"],
           " ".join(f"{h}:{c}" for h, c in sorted(e["hops"].items())),
           "-" if e["latency"] is None else e["latency"])
          for (jid, gen), e in summary.notification().items()]),
        ("Checkpoint / restore phases",
         ["span", "count", "mean (s)", "min (s)", "max (s)"],
         _dist_rows(summary.checkpoint())),
        ("Recovery windows (failure -> all ranks in H3)",
         ["job", "epoch", "start (s)", "duration (s)", "cause"],
         [(e["job"] or "-", e["epoch"], e["start"], e["duration"], e["cause"])
          for e in run["recoveries"]]),
        ("State dwell times per incarnation",
         ["state", "samples", "mean (s)", "min (s)", "max (s)"],
         _dist_rows(summary.dwell())),
    ]
    lines = [f"trace: {summary.count} events"]
    for title, columns, rows in tables:
        if rows:
            table = Table(title, columns)
            for row in rows:
                table.add(*row)
            lines.append(table.render())
    return "\n\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.obs.summary <trace.jsonl>", file=sys.stderr)
        return 2
    print(report(read_jsonl(argv[0])))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
