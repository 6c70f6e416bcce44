"""Trace exporters: deterministic JSONL and Chrome ``trace_event``.

The JSONL form is the canonical one -- one event per line, fixed key
order, compact separators, no wall-clock anywhere -- so two runs of
the same seeded scenario produce **byte-identical** files (the
deterministic-replay tests rely on this).  The Chrome form
(``chrome://tracing`` / Perfetto) maps sim-seconds to microseconds,
nodes to ``pid`` and ranks to ``tid`` for visual inspection.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Sequence, Union

from repro.obs.tracer import PH_COMPLETE, TraceEvent, Tracer

__all__ = [
    "event_to_dict",
    "event_from_dict",
    "dumps_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]

EventSource = Union[Tracer, Iterable[TraceEvent]]

#: Serialised field order (stable across runs and Python versions).
_FIELDS = ("ts", "dur", "ph", "cat", "name", "rank", "node", "incarnation", "epoch")


def _events(source: EventSource) -> Sequence[TraceEvent]:
    """The recorded events of ``source``, as a sequence."""
    return source.events if isinstance(source, Tracer) else list(source)


def event_to_dict(ev: TraceEvent) -> Dict[str, Any]:
    """Plain dict with deterministic key order; ``None`` fields omitted."""
    out: Dict[str, Any] = {}
    for field in _FIELDS:
        value = getattr(ev, field)
        if value is not None:
            out[field] = value
    if ev.args:
        out["args"] = {k: ev.args[k] for k in sorted(ev.args)}
    return out


def event_from_dict(d: Dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        d["name"], d["cat"], d["ph"], d["ts"],
        dur=d.get("dur"), rank=d.get("rank"), node=d.get("node"),
        incarnation=d.get("incarnation"), epoch=d.get("epoch"),
        args=d.get("args") or {},
    )


def _dump_line(ev: TraceEvent) -> str:
    return json.dumps(event_to_dict(ev), separators=(",", ":"), sort_keys=False)


def dumps_jsonl(source: EventSource) -> str:
    """The whole trace as one JSONL string (deterministic)."""
    return "".join(_dump_line(ev) + "\n" for ev in _events(source))


def write_jsonl(source: EventSource, path_or_file: Union[str, IO[str]]) -> int:
    """Write the trace as JSON Lines; returns the event count."""
    events = _events(source)
    if hasattr(path_or_file, "write"):
        path_or_file.write(dumps_jsonl(events))  # type: ignore[union-attr]
    else:
        with open(path_or_file, "w") as fh:  # type: ignore[arg-type]
            fh.write(dumps_jsonl(events))
    return len(events)


def read_jsonl(path_or_file: Union[str, IO[str]]) -> List[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` objects."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()  # type: ignore[union-attr]
    else:
        with open(path_or_file) as fh:  # type: ignore[arg-type]
            lines = fh.read().splitlines()
    return [event_from_dict(json.loads(line)) for line in lines if line.strip()]


# ------------------------------------------------------------- Chrome format
def to_chrome_trace(source: EventSource) -> Dict[str, Any]:
    """Convert to the Chrome ``trace_event`` JSON object format.

    ``pid`` = node id, ``tid`` = rank, ``ts``/``dur`` in microseconds
    (the format's native unit).  Identity labels that have no Chrome
    field ride along in ``args``.
    """
    trace_events: List[Dict[str, Any]] = []
    for ev in _events(source):
        entry: Dict[str, Any] = {
            "name": ev.name,
            "cat": ev.cat,
            "ph": ev.ph,
            "ts": ev.ts * 1e6,
            "pid": ev.node if ev.node is not None else 0,
            "tid": ev.rank if ev.rank is not None else 0,
        }
        if ev.ph == PH_COMPLETE:
            entry["dur"] = (ev.dur or 0.0) * 1e6
        args = {k: ev.args[k] for k in sorted(ev.args)}
        if ev.incarnation is not None:
            args["incarnation"] = ev.incarnation
        if ev.epoch is not None:
            args["epoch"] = ev.epoch
        if args:
            entry["args"] = args
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(source: EventSource, path: str) -> int:
    """Write a ``chrome://tracing``-loadable JSON file."""
    doc = to_chrome_trace(source)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=False)
    return len(doc["traceEvents"])
