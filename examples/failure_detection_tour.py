#!/usr/bin/env python
"""A tour of the log-ring failure detector.

Part 1 reproduces the paper's Figure 7 on paper: the overlay structure
for n=16 and how a failure of process 0 reaches everyone in 2 hops.

Part 2 runs it live: a 96-rank FMI job, one node crash, and the exact
simulated time each surviving rank received its notification -- the
~0.2 s ibverbs constant plus the cascade.

Run:  python examples/failure_detection_tour.py
"""

import numpy as np

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.net.overlay import (
    logring_neighbors,
    max_notification_hops_bound,
    notification_hops,
)
from repro.obs import Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def part1_figure7():
    n = 16
    print(f"Figure 7: log-ring overlay, n={n}")
    print(f"  process 0 connects to: {logring_neighbors(0, n)}")
    incoming = sorted(r for r in range(n) if 0 in logring_neighbors(r, n))
    print(f"  ...and receives connections from: {incoming}")
    hops = notification_hops(n, failed=0)
    by_hop = {}
    for rank, h in hops.items():
        by_hop.setdefault(h, []).append(rank)
    for h in sorted(by_hop):
        print(f"  hop {h}: ranks {sorted(by_hop[h])}")
    print(f"  bound: ceil(ceil(log2 {n})/2) = {max_notification_hops_bound(n)} hops")
    print()


def part2_live(nranks=96, ppn=12):
    print(f"Live detection: {nranks} ranks, 12/node; crashing node 0 at t=5s")
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(nranks // ppn + 1), RngRegistry(7))
    tracer = Tracer(sim)  # each notification is an ``overlay.notified`` record

    def idle(fmi):
        u = np.zeros(1)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= 200:
                break
            yield fmi.elapse(0.25)
        yield from fmi.finalize()

    job = FmiJob(machine, idle, num_ranks=nranks, procs_per_node=ppn,
                 config=FmiConfig(interval=10**6, xor_group_size=4,
                                  spare_nodes=1))
    job.launch()
    crash_at = 5.0

    def chaos():
        yield sim.timeout(crash_at)
        job.fmirun.node_slots[0].crash("tour")

    sim.spawn(chaos())
    sim.run(until=crash_at + 2.0)

    delays = sorted(ev.ts - crash_at for ev in tracer.events
                    if ev.name == "overlay.notified" and ev.epoch == 1)
    print(f"  survivors notified: {len(delays)} / {nranks - ppn}")
    print(f"  first (direct ibverbs event): {delays[0] * 1e3:.1f} ms")
    print(f"  last  (end of cascade):       {delays[-1] * 1e3:.1f} ms")
    buckets = {}
    for d in delays:
        buckets[round(d, 3)] = buckets.get(round(d, 3), 0) + 1
    for t, count in sorted(buckets.items()):
        print(f"    t+{t * 1e3:6.1f} ms: {count:3d} ranks {'#' * (count // 2)}")
    net = machine.spec.network
    hops = max_notification_hops_bound(nranks)
    print(f"  paper bound: 0.2s + {hops - 1} hops x {net.notify_hop_delay * 1e3:.0f}ms"
          f" = {(net.ibverbs_close_delay + (hops - 1) * net.notify_hop_delay) * 1e3:.0f} ms")


if __name__ == "__main__":
    part1_figure7()
    part2_live()
