"""Host-cost tripwire: Python+C calls and kernel events of a fixed run.

The per-event path (``simt.kernel``, ``simt.resources``,
``cluster.network``) is kept free of pools, closures and per-push
``len()`` calls, and the resume path of a rank free of generator frames
that only forward: each costs a call or more on every one of the
hundreds of thousands of events of a run.  This pins the cost of a
small run of the benchmark's ``himeno_cr`` shape (checkpointed
synthetic Himeno, one node crash), so the next such line fails tier-1
instead of waiting for a benchmark run.

The unit is the *rank-iteration* (24 ranks x 8 iterations), not the
kernel event: an event diet shrinks the event count on purpose, and a
calls/event ratio alone would reward events that do nothing.  Calls and
events per rank-iteration are pinned separately; the ratio stays as a
third ceiling.

Measured on CPython 3.11 (3.12+ inline comprehensions and count fewer
calls, 3.9/3.10 count like 3.11), per rank-iteration and per event:

====================================  =====  ======  ===========
commit                                calls  events  calls/event
====================================  =====  ======  ===========
before PR 15                              -       -         29.5
PR 15 (host cost of one event)         2285   126.4         18.1
PR 17 (one heap entry per pipe, no
forwarding frames under a resume)      1702   123.9         13.7
====================================  =====  ======  ===========

The ceilings sit ~12 % above the last row: room for honest small
additions, not for a new call per event or a new event per message.
"""

import cProfile
import pstats

import pytest

from repro.apps.himeno import HimenoParams, himeno_fmi_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

RANKS, ITERATIONS = 24, 8
CALLS_PER_RANK_ITERATION = 1900.0
EVENTS_PER_RANK_ITERATION = 139.0
#: below the 18.1 this run cost before the diet, so that neither half
#: can drift back while the other hides it
CALLS_PER_EVENT = 15.5


@pytest.fixture(scope="module")
def budget_run():
    """``(calls, events)`` of the profiled run."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(10), RngRegistry(14))
    params = HimenoParams(
        iterations=ITERATIONS, synthetic=True, points_per_rank=3.42e7,
        halo_bytes=333e3, ckpt_bytes=821e6 / 12,
    )
    job = FmiJob(
        machine, himeno_fmi_app(params), num_ranks=RANKS, procs_per_node=3,
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
    assert events > 20_000  # the run is the size the ceilings were set on
    return pstats.Stats(profile).total_calls, events


def test_calls_per_rank_iteration_stay_under_the_ceiling(budget_run):
    calls, _events = budget_run
    assert calls / (RANKS * ITERATIONS) < CALLS_PER_RANK_ITERATION, calls


def test_events_per_rank_iteration_stay_under_the_ceiling(budget_run):
    _calls, events = budget_run
    assert events / (RANKS * ITERATIONS) < EVENTS_PER_RANK_ITERATION, events


def test_calls_per_kernel_event_stay_under_the_ceiling(budget_run):
    calls, events = budget_run
    assert calls / events < CALLS_PER_EVENT, (calls, events)
