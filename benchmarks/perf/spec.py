"""Every metric the benchmark declares, with the reason it exists.

``BENCHMARK.json`` at the repo root is ``manifest()`` written out; the
smoke test keeps the two equal.  The manifest format has no room for
*why* a metric exists or which end-to-end metric a layer metric should
move, so that lives here and is rendered into the README.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

import layers

RUN_SECONDS = 6


class Workload(NamedTuple):
    name: str
    #: the unit ``ops_per_s`` counts
    op: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    why: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: which end-to-end metric this should move, on which workload
    moves: str


#: the segments of each are in ``workloads.SEGMENTS``; the figures in
#: the reasons are those of ``results/BENCH_11.json``, and the smoke test
#: asserts the relations they state on every record
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("himeno_ff", "rank-iteration",
                 "failure-free Himeno, no checkpoints, hop engine: the pure "
                 "messaging path (60 kernel events per rank-iteration), and the "
                 "bypass workload for checkpoint, recovery and obs work"),
        Workload("himeno_cr", "rank-iteration",
                 "Fig 15 FMI+C/R at 192 ranks: XOR-16 checkpoints at the Vaidya "
                 "interval and one node crash; their transfers make 5x the events "
                 "and calls per rank-iteration of himeno_ff (303 against 60)"),
        Workload("himeno_planes", "rank-iteration",
                 "the same crash at 48 ranks under recovery=logged and "
                 "=replicated, half the host time each: the one Himeno run where "
                 "fmi.msglog and fmi.replication work (4 % and 3 % of it)"),
        Workload("macro_16k", "rank-round",
                 "16,384 ranks on the macro collective tier: per-rank object "
                 "cost and peak memory (153 MB against 53 at most elsewhere), with "
                 "no hop collectives or checkpoints"),
        Workload("chaos_sweep", "campaign",
                 "every chaos campaign once at a fixed campaign seed, traced and "
                 "invariant-checked as CI runs it: many tiny jobs where bootstrap, "
                 "detector, checkpoints (19 %) and obs (4 %) matter"),
        Workload("sched_soak", "tenant-job",
                 "a 48-job multi-tenant stream with MTBF kills on 32 nodes: "
                 "admit/launch/teardown churn through scheduler and resource manager"),
    )
}

#: Bounds.  ``wall_s`` and ``ops_per_s``: the driver gates one bound per
#: metric on every workload, and ten runs of ``macro_16k`` spread 16.6 %
#: (a slow memory-side drift of this host that the speed probe cannot
#: see; the other five spread 2.4-7.8 %), so no bound under 0.25 holds.
#: ``host_calls_m`` 1 %: exact for one input, 0-0.9 % across seeds.
#: ``setup_s``: ISSUE 11's "10 % or 0.05 s" on 0.2 s set-ups is 25 %.
END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_s", "s", "lower", 0.25,
             "host seconds for one pass of the workload at the reference "
             "machine speed (median over passes in fresh processes): what a "
             "user waits for a simulated figure"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "the workload's ops (rank-iterations, campaigns, tenant jobs) per "
             "host second at the stated size; kernel events/s is deliberately "
             "not end-to-end, so removing events cannot read as a slowdown"),
    EndToEnd("host_calls_m", "Mcalls", "lower", 0.01,
             "millions of Python+C function calls in one pass, from the "
             "profiled run: repeats exactly for one input, so it resolves "
             "changes the drifting wall clock cannot"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "peak resident memory of the measuring process"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process spawn to the start of the first timed region, at the "
             "reference speed: interpreter start, imports, machine and job "
             "construction, the chaos reference runs"),
]

# -- which end-to-end metric each layer's numbers should move ---------------
_EVERYWHERE = "wall_s and host_calls_m on all six workloads"
_LAYER_MOVES: Dict[str, str] = {
    "simt.kernel": _EVERYWHERE + " (kernel + resources self time is 40-50 % "
                   "everywhere, so read it with the event counters)",
    "simt.process": _EVERYWHERE,
    "simt.resources": "wall_s on himeno_cr, whose checkpoint transfers are "
                      "flows here (5.8x the calls per op of himeno_ff); no "
                      "change predicted on macro_16k",
    "cluster.network": "wall_s on himeno_cr (checkpoint transfers cross the "
                       "fabric); no change predicted on macro_16k",
    "cluster.resource_manager": "wall_s on sched_soak",
    "net.matching": "wall_s on himeno_ff",
    "net.transport": "wall_s on himeno_ff",
    "mpi.collectives": "wall_s on himeno_ff; ~0 on macro_16k",
    "mpi.macro": "wall_s and peak_rss_mb on macro_16k only",
    "fmi.checkpoint": "wall_s on himeno_cr and chaos_sweep; 0 on himeno_ff and "
                      "macro_16k.  Its own frames are 9-19 %; the transfers it "
                      "starts run as kernel events, so read it with "
                      "simt.kernel.events per op",
    "fmi.runtime": "wall_s on himeno_cr and chaos_sweep while sim_recovery_s "
                   "stays exact",
    "fmi.detector": "wall_s on himeno_cr and chaos_sweep while sim_recovery_s "
                    "stays exact",
    "fmi.msglog": "wall_s on himeno_planes (and the logged jobs of chaos_sweep "
                  "and sched_soak); 0 on himeno_cr, himeno_ff and macro_16k",
    "fmi.replication": "wall_s on himeno_planes (and the replicated jobs of "
                       "chaos_sweep and sched_soak); 0 on himeno_cr, himeno_ff "
                       "and macro_16k",
    "obs": "wall_s on chaos_sweep only; tracing is off elsewhere, so an obs "
           "cost that leaks into untraced runs shows on himeno_ff",
    "chaos": "wall_s on chaos_sweep only",
    "sched": "wall_s on sched_soak",
    "apps": "wall_s on the Himeno workloads (app generators and models)",
    "ext": "numpy, builtins, heapq: moves with whichever layer calls them",
}

_COUNTERS: List[PerLayer] = [
    PerLayer("simt.kernel.events", "count", "lower",
             "host_calls_m everywhere: fewer events for the same sim_s is "
             "less host work"),
    PerLayer("simt.kernel.events_per_s", "1/s", "higher",
             "wall_s everywhere, read beside simt.kernel.events"),
    PerLayer("simt.kernel.peak_heap", "count", "lower",
             "peak_rss_mb on macro_16k"),
    PerLayer("net.transport.msgs", "count", "lower", "wall_s on himeno_ff"),
    PerLayer("net.transport.dropped_stale", "count", "lower",
             "wall_s on himeno_cr and chaos_sweep (wasted deliveries)"),
    PerLayer("net.matching.matched_unexpected_share", "share", "lower",
             "wall_s on himeno_ff (unexpected-queue matches cost more)"),
    PerLayer("mpi.macro.instances_macro", "count", "higher",
             "wall_s on macro_16k; must stay 0 elsewhere"),
    PerLayer("mpi.macro.instances_hop", "count", "lower",
             "wall_s on macro_16k: a hop fallback there is a failed op"),
    PerLayer("fmi.checkpoint.checkpoints_done", "count", "lower",
             "wall_s on himeno_cr, with sim_s"),
    PerLayer("fmi.checkpoint.restores_done", "count", "lower",
             "wall_s on himeno_cr and himeno_planes"),
    PerLayer("fmi.runtime.recoveries", "count", "lower",
             "must equal the kills that fired; wall_s on the fault workloads"),
    PerLayer("fmi.msglog.sim_recovery_s", "s", "lower",
             "sim_recovery_s on himeno_planes (logged run); 0 elsewhere"),
    PerLayer("fmi.replication.sim_recovery_s", "s", "lower",
             "sim_recovery_s on himeno_planes (replicated run); 0 elsewhere"),
    PerLayer("obs.trace_events", "count", "lower",
             "wall_s and peak_rss_mb on chaos_sweep; 0 elsewhere"),
    PerLayer("sched.restarts", "count", "lower", "wall_s on sched_soak"),
    PerLayer("sched.preemptions", "count", "lower", "wall_s on sched_soak"),
    PerLayer("chaos.violations", "count", "lower",
             "failed ops on chaos_sweep; must be 0"),
    PerLayer("py.gc_gen2_collections", "count", "lower",
             "wall_s on macro_16k, where a full collection walks every rank"),
]

_DRIVES: List[PerLayer] = [
    PerLayer("simt.kernel.drive_events_per_s", "1/s", "higher",
             "wall_s everywhere"),
    PerLayer("net.matching.drive_ops_per_s", "1/s", "higher",
             "wall_s on himeno_ff"),
    PerLayer("fmi.xor_codec.encode_mb_per_s", "MB/s", "higher",
             "wall_s on himeno_cr when payloads are real; the synthetic "
             "workloads carry 64-byte witnesses, so expect no change there"),
    PerLayer("fmi.xor_codec.reconstruct_mb_per_s", "MB/s", "higher",
             "as encode, on the restore path"),
    PerLayer("fmi.checkpoint.drive_group_wall_s", "s", "lower",
             "wall_s on himeno_cr"),
    PerLayer("mpi.macro.drive_allreduce_wall_s", "s", "lower",
             "wall_s on macro_16k"),
    PerLayer("obs.trace_overhead_ratio", "ratio", "lower",
             "wall_s on chaos_sweep, and on any run someone needs explained"),
]

_RUN: List[PerLayer] = [
    PerLayer("sim_s", "s", "lower",
             "simulated seconds to solution summed over the workload's runs: "
             "the modelled design's time; exact for one seed, and any change "
             "is a model change the issue must declare"),
    PerLayer("sim_recovery_s", "s", "lower",
             "mean simulated failure to all-ranks-in-H3 latency; exact; 0 on "
             "the workloads without faults"),
    PerLayer("py.unmapped_self_share", "share", "lower",
             "self time in src/repro modules no layer claims; must stay < 0.05"),
    PerLayer("py.profile_overhead_ratio", "ratio", "lower",
             "profiled over plain wall: how far cProfile stretches the shares"),
    PerLayer("host.raw_wall_s", "s", "lower",
             "wall_s before speed normalisation"),
    PerLayer("host.speed_factor", "ratio", "lower",
             "calibration time over its reference: the machine speed the run saw"),
]


def _ledger() -> List[PerLayer]:
    out = []
    for layer in layers.LAYERS:
        moves = _LAYER_MOVES[layer]
        out.append(PerLayer(f"{layer}.self_share", "share", "lower", moves))
        out.append(PerLayer(f"{layer}.calls_m", "Mcalls", "lower", moves))
    for name in layers.ENTRY_POINTS:
        layer = next(la for la in layers.LAYERS if name.startswith(la + "."))
        out.append(PerLayer(name, "share", "lower", _LAYER_MOVES[layer]))
    return out


PER_LAYER: List[PerLayer] = _ledger() + _COUNTERS + _DRIVES + _RUN

#: the simulator's own outputs: exact for one seed, and a run whose
#: seed the committed record holds fails when they differ from it
SIMULATED = ("sim_s", "sim_recovery_s")
#: per-layer metrics that must repeat exactly for one seed on one commit
EXACT = tuple(
    m.name for m in PER_LAYER
    if (m.name.endswith(".calls_m") or m.unit == "count")
    and not m.name.startswith("py.")
) + SIMULATED + ("fmi.msglog.sim_recovery_s", "fmi.replication.sim_recovery_s")


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
