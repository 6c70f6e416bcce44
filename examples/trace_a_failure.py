#!/usr/bin/env python
"""Trace a failure: watch a recovery through the observability layer.

Runs the quickstart scenario -- a 16-rank FMI job that loses a node
mid-run and recovers from its in-memory XOR checkpoint -- but with a
:class:`repro.obs.Tracer` attached to the simulator and a
:class:`repro.obs.MetricsRegistry` reading its trace.  Every message, overlay notification,
checkpoint phase, state transition and recovery window becomes a typed
event; afterwards we

* print the summary report (the same numbers Figures 5, 10 and 13 are
  built from),
* export the trace as deterministic JSONL (re-running this script
  produces a byte-identical file), and
* export a Chrome ``trace_event`` file you can open in Perfetto or
  ``chrome://tracing`` to *see* the cascade and the recovery.

Run:  python examples/trace_a_failure.py [output-dir]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.obs import MetricsRegistry, Tracer, write_chrome_trace, write_jsonl
from repro.obs.summary import report, summarize
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

NUM_LOOPS = 8
NUM_RANKS = 16
PROCS_PER_NODE = 2
CRASH_AT = 3.0


def application(fmi):
    state = np.zeros(8, dtype=np.float64)
    yield from fmi.init()
    while True:
        n = yield from fmi.loop([state])
        if n >= NUM_LOOPS:
            break
        yield fmi.elapse(0.5)
        state[0] = n + 1
        state[1] = yield from fmi.allreduce(float(fmi.rank + n))
    yield from fmi.finalize()
    return state


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out_dir.mkdir(parents=True, exist_ok=True)

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(10), RngRegistry(42))
    tracer = Tracer(sim)            # sim.tracer: every subsystem now emits
    metrics = MetricsRegistry(sim)  # counters, read off the trace
    job = FmiJob(
        machine,
        application,
        num_ranks=NUM_RANKS,
        procs_per_node=PROCS_PER_NODE,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1),
    )
    done = job.launch()

    def chaos():
        yield sim.timeout(CRASH_AT)
        job.fmirun.node_slots[2].crash("traced demo")

    sim.spawn(chaos())
    sim.run(until=done)

    # -- the report the obs layer derives from the raw events ----------------
    print(report(tracer))

    # The log-ring cascade, straight from the trace: who heard, and in
    # how many hops (compare Figures 8 and 13).
    gen1 = summarize(tracer).notification()[job.job_id, 1]
    print(f"\nfailure at t={gen1['failure_at']:.3f}s reached "
          f"{gen1['count']} survivors in <= {gen1['max_hop']} hops, "
          f"last one {gen1['latency']*1000:.0f} ms after the crash")

    # A few counters (full snapshot: metrics.snapshot()).
    print(f"messages sent: {metrics.sum_counters('net.msgs_sent'):.0f}, "
          f"checkpoints: {metrics.sum_counters('ckpt.checkpoints'):.0f}, "
          f"recoveries: {metrics.sum_counters('fmi.recoveries'):.0f}")

    # -- exports -------------------------------------------------------------
    jsonl = out_dir / "trace.jsonl"
    chrome = out_dir / "trace.chrome.json"
    n = write_jsonl(tracer, str(jsonl))
    write_chrome_trace(tracer, str(chrome))
    print(f"\nwrote {n} events to {jsonl}")
    print(f"open {chrome} in chrome://tracing or https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
