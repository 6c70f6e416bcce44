"""Cross-commit event-order guard: the kernel's schedule, pinned.

``test_obs_replay.py`` checks byte-identical replay run-to-run on one
commit; this file holds the same contract *across* commits.  Each
scenario has an explicit fault schedule (nothing drawn from an RNG at
run time) and is pinned in halves that move under different rules:

* ``PINNED`` -- the final clock, the trace length and the sha256 of the
  JSONL trace: what the simulation *computed*, and in which order.  A
  change that only makes the simulator faster, an event diet included,
  must leave every value here untouched.  To regenerate for a
  *declared* model change (one whose issue says the simulated numbers
  move): run ``PYTHONPATH=src python -m tests.test_golden_order pinned``
  on the new commit, paste the printed dict over the one below, and
  say in CHANGES.md which scenarios moved and why.  Never regenerate to
  make a refactor pass.
* ``COUNTERS`` -- ``events_processed`` and ``peak_heap``: how many heap
  entries the kernel popped to get there.  A declared *event diet* (a
  change that removes entries which dispatch nothing while every live
  callback keeps its ``(time, seq)``) re-records these, and only these:
  run ``... -m tests.test_golden_order counters``, paste, and give old
  -> new per scenario in CHANGES.md with the delta accounted for by
  kind of entry.  The command prints one dict, so a diet stage cannot
  touch a digest without saying so.
* ``METRICS`` -- the sha256 of the snapshot of the ``MetricsRegistry``
  each scenario attaches: every instrument's labels and value.  It
  moves under the ``PINNED`` rule (``... -m tests.test_golden_order
  metrics`` prints it): a change to how instruments are looked up or
  updated must leave it untouched.
* ``SCHEDULE`` -- the sha256 over ``(repr(now), kind, identity)`` of
  every callback the kernel dispatched, in dispatch order, recorded by
  ``tests/schedule_recorder.py``: which process resumed, which message
  was delivered, which pipe's timer ran, which wire started or landed,
  at which float.  The trace digest sees only what an instrumented site
  reports; this sees the order of everything else.  It moves under the
  ``PINNED`` rule (``... -m tests.test_golden_order schedule``).  The
  one thing it leaves out is a wire's own join bookkeeping
  (``_Wire.part_done`` / ``on_wire`` where a commit has them):
  callbacks that touch only their own record, which DESIGN section 9
  lets ride in their caller's frame.  A callback that is only
  *renamed* (a closure whose qualname moves with the code that defines
  it) is identified by that name, so a refactor may re-record
  ``SCHEDULE``, and nothing else, once -- provided the entry-by-entry
  diff against the parent commit (``RecordingSimulator(keep=True)``)
  holds the same number of entries and every differing entry is the
  same time and identity under the new name; quote that diff in
  CHANGES.md.
* ``MACRO`` -- the one untraced run, the call budget's macro-tier job
  (a tracer moves every collective off the macro tier, so no scenario
  above reaches it): its ``SCHEDULE`` digest, final clock and
  ``COUNTERS``, moving under those rules (``... -m
  tests.test_golden_order macro`` prints it).
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.apps.synthetic import bsp_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.net.faults import LinkFaultModel
from repro.obs import MetricsRegistry, Tracer, dumps_jsonl
from repro.sched import JobSpec, StreamScheduler, trace_arrivals
from repro.simt import Simulator
from repro.simt.rng import RngRegistry
from tests.collective_engine import pinned_engine
from tests.schedule_recorder import RecordingSimulator
from tests.test_call_budget import _check_macro, _macro_job

#: recorded on commit 18ea7e3 (PR 12), before PR 15 touched the kernel
PINNED = {
    "crash-global": (
        "3.8467885629491336", 2363,
        "4d6b9dfb785a00601ca2d08eb6abae7df466751f7d84ccb089d011f1731fa9c9"),
    "crash-logged": (
        "3.7554656366126804", 3003,
        "04acd606b0fb3a6880c685bb069be1d865e1dd4fdba50c7bdb6466b04819d9fc"),
    "crash-replicated": (
        "2.917010285730769", 7287,
        "d486bd2c956b7574f41890e718f89cfaa783bf43def6118976e4d604fcb9a207"),
    "gray-limp-partition-crash": (
        "4.1969744195687255", 4383,
        "9138e025455ea41e9c06262e5b84b792aeb410195b7fe285b475b9f51f05ef8e"),
    "sched-three-tenants": (
        "2.87122860022531", 3815,
        "be039af1cabe93615106d3982fc1784589dc36b8da6bc40c8aeef21949b7fdff"),
    # recorded on commit 69b6df7 (PR 19), before PR 20 made the lossy
    # and the observed delivery one record and one body
    "lossy-partition-crash-metered": (
        "8.667363092803315", 5490,
        "607df2f7eb7bcf752af6007ff4b43cb35575f76ffbe3b98f7b1a5c6d1e79a553"),
}

#: (events_processed, peak_heap); last re-recorded by PR 21 (event
#: diet, stage 2: a wire is the completion target of its own two pipe
#: flows, so the ``tx``, ``rx`` and ``both`` events of every inter-node
#: message are gone).  Old -> new, the delta exactly 3 x the scenario's
#: inter-node messages (``_Wire.start`` dispatches, in brackets):
#:   crash-global                  (10299, 22) ->  (7875, 22)   [808]
#:   crash-logged                   (9952, 22) ->  (7594, 22)   [786]
#:   crash-replicated              (31025, 62) -> (21998, 52)  [3009]
#:   gray-limp-partition-crash     (18945, 30) -> (14502, 30)  [1481]
#:   sched-three-tenants           (14092, 40) -> (10666, 40)  [1142]
#:   lossy-partition-crash-metered (23032, 34) -> (17692, 32)  [1780]
COUNTERS = {
    "crash-global": (7875, 22),
    "crash-logged": (7594, 22),
    "crash-replicated": (21998, 52),
    "gray-limp-partition-crash": (14502, 30),
    "sched-three-tenants": (10666, 40),
    "lossy-partition-crash-metered": (17692, 32),
}

#: sha256 of ``json.dumps(metrics.snapshot(), sort_keys=True)``; the
#: lossy scenario's recorded on commit 69b6df7, the other five on commit
#: 42fddd1, when each scenario gained a registry -- and two re-recorded
#: once since, when the registry became a view of the trace: the gauges
#: ``mlog.log_bytes`` (crash-logged, sched-three-tenants) and
#: ``sched.goodput`` (sched-three-tenants, one per job) have no trace
#: twin and went, every other key kept its value
METRICS = {
    "crash-global":
        "6a9d1bfdbbc2478a62f9fdd6a65294b52515acccebaf41694fe22ca6b09ae384",
    "crash-logged":
        "3e0d25bce0bd234d610df07a265a7c4358199afd46cfb8c58398637db912934a",
    "crash-replicated":
        "d735f2bf08dcb74ccc2f4ca25417b029c95dce46a951fad69fcc4f9be5cbe374",
    "gray-limp-partition-crash":
        "bd5af0886b7059a30ba0151c3afc96912bda394914d6e1e247fffd51baa20612",
    "sched-three-tenants":
        "02f0c4792c2b58122e91e800393d746461059d2833f48718c913e7102cd54bc9",
    "lossy-partition-crash-metered":
        "bda699ef329cff6616a368b70ca2e6f51881a30a95a70e1004f0a59dc9af8beb",
}

#: sha256 of the dispatch sequence (``tests/schedule_recorder.py``);
#: recorded on commit 58d77b4 (PR 20), before PR 21 touched the wire
#: -- and re-recorded twice since, for renames only: the safety-sweep
#: closure moved from ``Survivable.begin_recovery`` to
#: ``Fmirun.begin_recovery``, one entry in each scenario that sweeps
#: (``crash-replicated`` fails over and never sweeps); then a rank
#: became its own exit hook, ``RankProcess._dispatch_exit`` ->
#: ``FmiProcess``, 9 entries in each crash scenario, 20 in
#: ``sched-three-tenants``
SCHEDULE = {
    "crash-global":
        "2836a259e2432ce3096fc582d2a781a68fe39ec38e96441e3b7ae81181bd565c",
    "crash-logged":
        "2a133edfa5d5a60f769ae5e4d2015de63e187f92cbe960f3436c4ccf9ffd97b0",
    "crash-replicated":
        "db4b7e116ac6155e86dd8814d3e93c5db300899c892ee1afd3fe9bd98c967543",
    "gray-limp-partition-crash":
        "258c78e9e4ffa8df5bc0e661dfa2911d3eb2fb279daa32c7f84be564d1448be9",
    "sched-three-tenants":
        "5fe53e234579b7d6d620de72e3bc5dc07470081d8fedf5d1c6a178dd84e1992a",
    "lossy-partition-crash-metered":
        "d50bcddb1f796360016bed0bb0d325e6bef4390fe572cf5c17ef818cd9a05524",
}

#: the call budget's macro-tier run (``tests/test_call_budget.py``),
#: untraced -- a tracer moves every collective off the macro tier, so
#: no scenario above reaches it: ``(schedule digest, repr(sim.now),
#: (events_processed, peak_heap))``.  Recorded on commit 472b942 and
#: re-recorded once, under the ``SCHEDULE`` rule, for the exit-hook
#: rename: ``RankProcess._dispatch_exit`` -> ``MpiRankProcess``, one
#: entry per rank (1,024); the clock and the counters held
MACRO = (
    "6cae8180215975daf46cf1e0d2a240ea8dcc3109cbc52efa120d93f1b45c5732",
    "0.17006687372839502",
    (15108, 1984),
)


def _at(sim, when, action):
    """Run ``action()`` at simulated time ``when`` (one kernel event)."""
    sim.timeout(when).callbacks.append(lambda _e: action())


def _allreduce_app(fmi):
    """The ``test_obs_replay.py`` application: six checkpointed loops."""
    state = np.zeros(4, dtype=np.float64)
    yield from fmi.init()
    while True:
        n = yield from fmi.loop([state])
        if n >= 6:
            break
        yield fmi.elapse(0.4)
        state[0] = n + 1
        state[1] = yield from fmi.allreduce(float(fmi.rank + n))
    yield from fmi.finalize()
    return state


def _observed(sim):
    """A tracer and a metrics registry on ``sim``."""
    tracer = Tracer(sim)
    return tracer, MetricsRegistry(sim)


def _job(make_sim, app, recovery, nodes, spares, seed):
    sim = make_sim()
    machine = Machine(sim, SIERRA.with_nodes(nodes), RngRegistry(seed))
    tracer, metrics = _observed(sim)
    job = FmiJob(
        machine, app, num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, recovery=recovery,
                         spare_nodes=spares),
    )
    return sim, machine, (tracer, metrics), job


def _crash(make_sim, recovery):
    """The ``test_obs_replay.py`` scenario: slot 1's node dies at 2.5 s."""
    replicated = recovery == "replicated"
    sim, machine, observers, job = _job(
        make_sim, _allreduce_app, recovery, nodes=10 if replicated else 6,
        spares=1, seed=1234)
    done = job.launch()
    victim = job.fmirun.node_slots[1].id
    _at(sim, 2.5, lambda: machine.fail_nodes([victim]))
    sim.run(until=done)
    assert job.epoch == 1  # the scenario really recovered
    return (sim, *observers)


def _gray(make_sim):
    """A limping node, then a partition that heals, then a crash."""
    sim, machine, observers, job = _job(
        make_sim, bsp_app(12, work_s=0.25), "global", nodes=6, spares=1,
        seed=7)
    done = job.launch()
    slots = job.fmirun.node_slots
    limper, cut, victim = slots[2].id, slots[3].id, slots[0].id
    _at(sim, 0.6, lambda: machine.limp_nodes([limper], 8.0, 4.0))
    _at(sim, 1.1, lambda: machine.partition([[cut]], tag="golden"))
    _at(sim, 1.3, machine.heal_partition)
    _at(sim, 1.9, lambda: machine.unlimp_nodes([limper]))
    _at(sim, 2.4, lambda: machine.fail_nodes([victim]))
    sim.run(until=done)
    assert job.epoch >= 1
    return (sim, *observers)


def _lossy(make_sim):
    """Lossy links with drop, duplicate and delay all armed, a
    drop-mode partition that heals, then a crash -- traced *and*
    metered, with level-2 flushes: the one scenario that crosses the
    omission model, the retransmitting cut and the metrics registry."""
    sim = make_sim()
    machine = Machine(sim, SIERRA.with_nodes(6), RngRegistry(11))
    tracer, metrics = _observed(sim)
    job = FmiJob(
        machine, bsp_app(12, work_s=0.25), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1,
                         level2_every=2),
    )
    done = job.launch()
    transport = job.transport
    slots = job.fmirun.node_slots
    cut, victim = slots[3].id, slots[0].id
    model = LinkFaultModel(machine.rng.stream("golden-links"),
                           drop_p=0.06, dup_p=0.05, delay_p=0.06)

    def split():
        transport.partition_mode = "drop"
        machine.partition([[cut]], tag="golden")

    _at(sim, 0.4, lambda: transport.set_faults(model))
    _at(sim, 1.1, split)
    _at(sim, 1.3, machine.heal_partition)
    _at(sim, 2.4, lambda: machine.fail_nodes([victim]))
    sim.run(until=done)
    assert job.epoch >= 1 and job.level2_flushes > 0
    # every branch the scenario exists for was really taken
    assert transport.omission_drops and transport.omission_delays
    assert transport.omission_dups and transport.dup_dropped
    assert transport.partition_retries and transport.dropped_dead
    return sim, tracer, metrics


def _sched(make_sim):
    """Three tenants, one per FMI family, on one shared machine; the
    global and the replicated tenant each lose a node."""
    sim = make_sim()
    machine = Machine(sim, SIERRA.with_nodes(16), RngRegistry(0))
    tracer, metrics = _observed(sim)
    sched = StreamScheduler(machine, backfill=True, spare_pool=2)
    kills = {"glb": 0.8, "rep": 0.7}

    def aim(rec):
        delay = kills.pop(rec.spec.name, None)
        if delay is not None:
            _at(sim, delay, lambda: rec.job.fmirun.node_slots[0].crash("golden"))

    sched.on_start(aim)
    common = dict(ranks=4, ppn=2, iterations=8, work_s=0.2)

    def config(recovery):
        return FmiConfig(interval=2, spare_nodes=1, recovery=recovery)

    sched.submit_many(trace_arrivals([
        (0.0, JobSpec(name="glb", config=config("global"), **common)),
        (0.2, JobSpec(name="log", config=config("logged"), **common)),
        (0.4, JobSpec(name="rep", config=config("replicated"), **common)),
    ]))
    drained = sched.drain()
    sim.run(until=drained, max_events=3_000_000)
    assert drained.value.completed == 3
    return sim, tracer, metrics


#: each takes the simulator class to run on
SCENARIOS = {
    "crash-global": lambda make_sim: _crash(make_sim, "global"),
    "crash-logged": lambda make_sim: _crash(make_sim, "logged"),
    "crash-replicated": lambda make_sim: _crash(make_sim, "replicated"),
    "gray-limp-partition-crash": _gray,
    "sched-three-tenants": _sched,
    "lossy-partition-crash-metered": _lossy,
}


@functools.lru_cache(maxsize=None)
def fingerprint(name):
    """``(pinned triple, kernel counters, metrics digest)`` of one
    scenario run."""
    sim, tracer, metrics = SCENARIOS[name](Simulator)
    text = dumps_jsonl(tracer)
    pinned = (repr(sim.now), len(tracer.events),
              hashlib.sha256(text.encode()).hexdigest())
    snapshot = json.dumps(metrics.snapshot(), sort_keys=True)
    digest = hashlib.sha256(snapshot.encode()).hexdigest()
    return pinned, (sim.stats.events_processed, sim.stats.peak_heap), digest


@functools.lru_cache(maxsize=None)
def schedule(name):
    """The dispatch-sequence digest of one scenario, and that the
    single-stepped run computed what the inlined loop computes."""
    sim, tracer, _metrics = SCENARIOS[name](RecordingSimulator)
    assert (repr(sim.now), len(tracer.events)) == fingerprint(name)[0][:2]
    return sim.digest.hexdigest()


@functools.lru_cache(maxsize=None)
def macro_fingerprint():
    """``MACRO`` of this commit: the schedule from a recorded run, the
    counters from the inlined loop, which must end at the same float."""
    runs = []
    for make_sim in (RecordingSimulator, Simulator):
        with pinned_engine("macro"):
            sim, job = _macro_job(make_sim)
            _check_macro(job, sim.run(until=job.launch()))
        runs.append(sim)
    recorded, inlined = runs
    assert repr(recorded.now) == repr(inlined.now)
    return (recorded.digest.hexdigest(), repr(inlined.now),
            (inlined.stats.events_processed, inlined.stats.peak_heap))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_order_matches_the_recorded_commit(name):
    assert fingerprint(name)[0] == PINNED[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_kernel_counters_match_the_recorded_diet_stage(name):
    assert fingerprint(name)[1] == COUNTERS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_metrics_snapshot_matches_the_recorded_commit(name):
    assert fingerprint(name)[2] == METRICS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_dispatch_sequence_matches_the_recorded_commit(name):
    assert schedule(name) == SCHEDULE[name]


def test_the_untraced_macro_tier_matches_the_recorded_commit():
    assert macro_fingerprint() == MACRO


if __name__ == "__main__":
    import sys

    half = sys.argv[1] if len(sys.argv) == 2 else None
    if half not in ("pinned", "counters", "metrics", "schedule", "macro"):
        sys.exit("usage: python -m tests.test_golden_order "
                 "pinned|counters|metrics|schedule|macro")
    if half == "macro":
        digest, now, counters = macro_fingerprint()
        print(f"MACRO = (\n    {digest!r},\n    {now!r},\n    {counters},\n)")
        sys.exit()
    print(f"{half.upper()} = {{")
    for scenario in SCENARIOS:
        (now, count, digest), counters, metrics = fingerprint(scenario)
        if half == "pinned":
            print(f"    {scenario!r}: (\n        {now!r}, {count},\n"
                  f"        {digest!r}),")
        elif half == "counters":
            print(f"    {scenario!r}: {counters},")
        elif half == "schedule":
            print(f"    {scenario!r}:\n        {schedule(scenario)!r},")
        else:
            print(f"    {scenario!r}:\n        {metrics!r},")
    print("}")
