"""Property test: traced notifications respect the Figure-8 hop bound.

For random cluster sizes n in [2, 256] (one rank per node) and a
random victim, crash one node mid-run and check -- from the tracer's
``overlay.notified`` events, i.e. the *live* detector, not the graph
math -- that every survivor hears about the failure, and that no
notification travels more than ``ceil(ceil(log2 n)/2)`` overlay hops.
This closes the previously untested end-to-end bound behind Fig 8/13.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.net.overlay import max_notification_hops_bound
from repro.obs import Tracer
from repro.obs.summary import summarize
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

CRASH_AT = 5.0


def idle_app(fmi):
    u = np.zeros(2)
    yield from fmi.init()
    while True:
        n = yield from fmi.loop([u])
        if n >= 1000:
            break
        yield fmi.elapse(0.5)
    yield from fmi.finalize()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 256),
    victim_pick=st.integers(0, 2**31),
    seed=st.integers(0, 2**31),
)
def test_traced_notifications_within_logring_bound(n, victim_pick, seed):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(n + 1), RngRegistry(seed))
    tracer = Tracer(sim)
    job = FmiJob(
        machine, idle_app, num_ranks=n, procs_per_node=1,
        # Checkpointing is off (this test is purely about the overlay),
        # which skips the mandatory first checkpoint -- an O(n^2)-message
        # ring at group size n.  One whole-job XOR group because the
        # layout is still built and must divide the node count.
        config=FmiConfig(xor_group_size=n, spare_nodes=1,
                         checkpoint_enabled=False),
    )
    job.launch()
    victim_slot = victim_pick % n
    victim = job.fmirun.node_slots[victim_slot]

    def killer():
        yield sim.timeout(CRASH_AT)
        victim.crash("property-test")

    sim.spawn(killer())
    # The cascade finishes within ibverbs_close_delay + hops*hop_delay
    # (< 0.3 s); no need to simulate the subsequent recovery.
    sim.run(until=CRASH_AT + 0.5)

    summary = summarize(tracer).notification()
    if n == 1:  # pragma: no cover - excluded by the strategy
        return
    gen1 = summary[job.job_id, 1]
    survivors = n - 1
    bound = max_notification_hops_bound(n)
    assert gen1["count"] == survivors, (
        f"n={n}: log-ring reached {gen1['count']}/{survivors} survivors"
    )
    assert gen1["max_hop"] <= bound, (
        f"n={n}: notification took {gen1['max_hop']} hops, bound {bound}"
    )
    # Every notified rank is a distinct survivor (no double counting).
    notified_ranks = {
        ev.rank for ev in tracer.events
        if ev.name == "overlay.notified" and ev.epoch == 1
    }
    assert len(notified_ranks) == survivors
    assert victim_slot not in notified_ranks
    # Timing is consistent with the hop counts: ibverbs constant plus
    # per-hop cascade delays.
    net = SIERRA.network
    worst = net.ibverbs_close_delay + (gen1["max_hop"] - 1) * net.notify_hop_delay
    assert gen1["latency"] <= worst + 1e-9
