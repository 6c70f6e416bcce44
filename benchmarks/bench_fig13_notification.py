"""Fig 13 -- global failure-notification time with the log-ring overlay.

Launch an FMI job, crash one node mid-run, and measure the time from
the crash until the *last* surviving rank is notified through the
log-ring cascade.  The paper's shape: a ~0.2 s constant (the ibverbs
close delay) plus a logarithmic cascade term, totalling ~0.25-0.4 s out
to 1,536 processes.

Measurement comes from the observability layer: a
:class:`repro.obs.Tracer` records the ``node.crash`` instant and every
``overlay.notified`` event (with its cascade hop count), and
:func:`repro.obs.summary.summarize` turns that into the
survivor count, hop histogram and notification latency -- no hand-
rolled timing in the benchmark itself.
"""

import numpy as np
import pytest

from _harness import PROC_COUNTS, PROCS_PER_NODE, make_machine, nodes_for
from repro.analysis.tables import Table
from repro.fmi import FmiConfig, FmiJob
from repro.net.overlay import max_notification_hops_bound
from repro.obs import Tracer
from repro.obs.summary import summarize


def idle_app(iterations=1000, step=0.25):
    def app(fmi):
        u = np.zeros(2)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= iterations:
                break
            yield fmi.elapse(step)
        yield from fmi.finalize()

    return app


def measure(nprocs: int, crash_at: float = 5.0):
    sim, machine = make_machine(nodes_for(nprocs, spares=1), seed=nprocs)
    tracer = Tracer(sim)
    job = FmiJob(
        machine, idle_app(), num_ranks=nprocs, procs_per_node=PROCS_PER_NODE,
        config=FmiConfig(interval=1000000, xor_group_size=4, spare_nodes=1),
    )
    job.launch()
    victim = job.fmirun.node_slots[0]

    def killer():
        yield sim.timeout(crash_at)
        victim.crash("bench")

    sim.spawn(killer())
    sim.run(until=crash_at + 2.0)
    gen1 = summarize(tracer).notification()[job.job_id, 1]
    survivors = nprocs - PROCS_PER_NODE
    assert gen1["count"] == survivors, (
        f"log-ring reached {gen1['count']}/{survivors} survivors"
    )
    assert gen1["failure_at"] == pytest.approx(crash_at)
    return gen1


def run_sweep():
    return {n: measure(n) for n in PROC_COUNTS}


def test_fig13_notification_time(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    from repro.cluster.spec import SIERRA

    net = SIERRA.network
    table = Table(
        "Fig 13: global failure-notification time (log-ring overlay)",
        ["Procs", "measured (s)", "max hop", "hop bound", "bound time (s)"],
    )
    for nprocs, gen1 in out.items():
        t = gen1["latency"]
        hops = max_notification_hops_bound(nprocs)
        bound = net.ibverbs_close_delay + (hops - 1) * net.notify_hop_delay
        table.add(nprocs, round(t, 4), gen1["max_hop"], hops, round(bound, 4))
        # The ibverbs constant dominates; the cascade adds hop delays.
        assert net.ibverbs_close_delay <= t <= bound + 1e-9
        # Traced hop counts respect the paper's Figure 8 bound.
        assert gen1["max_hop"] <= hops
    table.show()
    # Paper shape: ~0.2 s floor, under ~0.4 s at the largest scale,
    # growing (weakly) with process count.
    times = [gen1["latency"] for gen1 in out.values()]
    assert times[-1] <= 0.45
    assert times[-1] >= times[0]
