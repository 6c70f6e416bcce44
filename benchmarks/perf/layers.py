"""Attribute a cProfile run to the repo's layers.

A layer is a module (or a few that form one mechanism) under
``src/repro``; :func:`layer_of` maps every source file to exactly one.
:func:`ledger` turns ``pstats`` rows into, per layer, the share of
self time and the exact call count, plus the inclusive share of each
layer's public entry points.  Shares, not seconds, so the machine's
speed cancels.
"""

from __future__ import annotations

import os
from fnmatch import fnmatchcase
from typing import Dict, Optional, Tuple

#: module -> layer, for the modules that do not belong to their
#: package's default layer
_MODULE_LAYER = {
    "simt/process": "simt.process",
    "simt/resources": "simt.resources",
    "cluster/resource_manager": "cluster.resource_manager",
    "net/matching": "net.matching",
    "net/matching_reference": "net.matching",
    "net/overlay": "fmi.detector",
    "net/endpoint": "fmi.detector",
    "mpi/macro": "mpi.macro",
    "fmi/checkpoint": "fmi.checkpoint",
    "fmi/redundancy": "fmi.checkpoint",
    "fmi/xor_codec": "fmi.checkpoint",
    "fmi/xor_group": "fmi.checkpoint",
    "fmi/payload": "fmi.checkpoint",
    "fmi/multilevel": "fmi.checkpoint",
    "fmi/collective_io": "fmi.checkpoint",
    "fmi/detector": "fmi.detector",
    "fmi/msglog": "fmi.msglog",
    "fmi/replication": "fmi.replication",
}
#: package -> layer of every other module in it.  A package missing
#: here is unmapped on purpose: the smoke test fails until it is named.
_PACKAGE_LAYER = {
    "": "fmi.runtime",  # repro/__init__.py
    "simt": "simt.kernel",
    "cluster": "cluster.network",
    "net": "net.transport",
    "mpi": "mpi.collectives",
    "fmi": "fmi.runtime",
    "runtime": "fmi.runtime",
    "recovery": "fmi.runtime",
    "obs": "obs",
    "chaos": "chaos",
    "sched": "sched",
    "apps": "apps",
    "models": "apps",
    "analysis": "apps",
}
#: everything outside ``src/repro``: builtins, numpy, the standard
#: library and the benchmark's own frames
EXT = "ext"
UNMAPPED = "unmapped"
LAYERS = tuple(sorted(set(_MODULE_LAYER.values())
                      | set(_PACKAGE_LAYER.values()))) + (EXT,)

#: metric -> (file under src/repro, function-name patterns): the public
#: entry points whose inclusive time is the layer's cost *with* what it
#: calls.  Calls between functions of one set are counted once.
ENTRY_POINTS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "net.transport.incl_share": (("net/transport.py", ("send",)),),
    "net.matching.incl_share": (("net/matching.py", ("post", "deliver")),),
    "mpi.collectives.incl_share": (("mpi/collectives.py", ("*_hops",)),),
    "mpi.macro.incl_share": (
        ("mpi/macro.py", ("instance", "join", "_complete", "_finish_*")),
    ),
    "fmi.checkpoint.incl_share": (("fmi/checkpoint.py", ("checkpoint",)),),
    "fmi.checkpoint.restore_incl_share": (
        ("fmi/checkpoint.py", ("restore", "rebuild_missing")),
    ),
    # the planes' per-message hooks (stamp, log or mirror, receive
    # filter, wildcard sink), log trimming at a checkpoint, and recovery
    "fmi.msglog.incl_share": (
        ("fmi/msglog.py", ("on_send", "accept", "sink",
                           "note_rank_checkpoint", "partial_restore")),
    ),
    "fmi.replication.incl_share": (
        ("fmi/replication.py",
         ("on_send", "mirror_copies", "accept", "sink",
          "note_rank_checkpoint", "partial_restore", "try_failover")),
    ),
    "obs.incl_share": (
        ("obs/tracer.py", ("instant", "complete")),
        ("obs/metrics.py", ("inc", "observe")),
    ),
}

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def repro_relpath(filename: str) -> Optional[str]:
    """``fmi/checkpoint.py`` for a file under ``src/repro``, else None."""
    head, sep, tail = filename.rpartition(_MARKER)
    return tail.replace(os.sep, "/") if sep else None


def layer_of(filename: str) -> str:
    """The layer a profiled frame's source file belongs to."""
    rel = repro_relpath(filename)
    if rel is None:
        return EXT
    module = rel[:-3] if rel.endswith(".py") else rel
    layer = _MODULE_LAYER.get(module)
    if layer is None:
        package = module.rpartition("/")[0].split("/")[0]
        layer = _PACKAGE_LAYER.get(package, UNMAPPED)
    return layer


def _is_entry(func, entries) -> bool:
    rel = repro_relpath(func[0])
    return rel is not None and any(
        rel == path and any(fnmatchcase(func[2], pat) for pat in patterns)
        for path, patterns in entries
    )


def ledger(stats: Dict) -> Dict[str, float]:
    """Per-layer metrics from ``pstats.Stats(...).stats``.

    ``stats`` maps ``(file, line, name)`` to ``(primitive calls, calls,
    self time, inclusive time, callers)``.
    """
    total = sum(row[2] for row in stats.values()) or 1.0
    self_time = {layer: 0.0 for layer in LAYERS + (UNMAPPED,)}
    calls = {layer: 0 for layer in LAYERS + (UNMAPPED,)}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        self_time[layer] += tt
        calls[layer] += nc
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_time[layer] / total
        out[f"{layer}.calls_m"] = calls[layer] / 1e6
    out["py.unmapped_self_share"] = self_time[UNMAPPED] / total
    for metric, entries in ENTRY_POINTS.items():
        out[metric] = _inclusive(stats, entries) / total
    return out


def _inclusive(stats: Dict, entries) -> float:
    """Inclusive seconds of a set of functions, entered from outside it."""
    seconds = 0.0
    for func, (_cc, _nc, _tt, ct, callers) in stats.items():
        if not _is_entry(func, entries):
            continue
        if not callers:
            seconds += ct
            continue
        seconds += sum(
            edge[3] for caller, edge in callers.items()
            if not _is_entry(caller, entries)
        )
    return seconds


def total_calls_m(stats: Dict) -> float:
    return sum(row[1] for row in stats.values()) / 1e6
