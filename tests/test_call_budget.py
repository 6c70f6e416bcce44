"""Host-cost tripwire: Python+C calls per kernel event on a fixed run.

The per-event path (``simt.kernel``, ``simt.resources``,
``cluster.network``) is kept free of pools, closures and per-push
``len()`` calls: each costs a call or more on every one of the
hundreds of thousands of events of a run.  This pins the ratio on a
small run of the benchmark's ``himeno_cr`` shape (checkpointed
synthetic Himeno, one node crash), so the next such line fails tier-1
instead of waiting for a benchmark run.
"""

import cProfile
import pstats

from repro.apps.himeno import HimenoParams, himeno_fmi_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

#: measured 18.4 calls/event on CPython 3.11 when this was written (the
#: commit before: 29.5; the full-size benchmark workload: 15.1 against
#: 26.6).  3.12+ inline comprehensions and count fewer calls, 3.9/3.10
#: count like 3.11.  The margin is for honest small additions, not for
#: a new call per event.
CEILING = 21.0


def test_calls_per_kernel_event_stay_under_the_ceiling():
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(10), RngRegistry(14))
    params = HimenoParams(
        iterations=8, synthetic=True, points_per_rank=3.42e7,
        halo_bytes=333e3, ckpt_bytes=821e6 / 12,
    )
    job = FmiJob(
        machine, himeno_fmi_app(params), num_ranks=24, procs_per_node=3,
        config=FmiConfig(mtbf_seconds=60.0, xor_group_size=4, spare_nodes=2),
    )
    done = job.launch()
    victim = job.fmirun.node_slots[3]
    sim.timeout(4.0).callbacks.append(lambda _e: victim.crash("budget"))

    profile = cProfile.Profile()
    profile.enable()
    sim.run(until=done)
    profile.disable()

    assert job.recovery_count == 1
    events = sim.stats.events_processed
    assert events > 20_000  # the run is the size the ceiling was set on
    calls = pstats.Stats(profile).total_calls
    assert calls / events < CEILING, (calls, events)
