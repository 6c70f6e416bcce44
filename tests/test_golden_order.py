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
  (the scenarios above reach the macro tier too, but only for a few
  8-rank collectives): its ``SCHEDULE`` digest, final clock and
  ``COUNTERS``, moving under those rules (``... -m
  tests.test_golden_order macro`` prints it).

A tracer changes no answer: every scenario run bare ends on the clock,
the kernel event count and the answers of its traced run, and so does
the ``MACRO`` job (``test_a_tracer_*``).
"""

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.apps.synthetic import bsp_app
from repro.chaos.invariants import TraceInvariants
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.net.faults import LinkFaultModel
from repro.obs import MetricsRegistry, Tracer, dumps_jsonl
from repro.sched import JobSpec, StreamScheduler, trace_arrivals
from repro.simt import Simulator
from repro.simt.rng import RngRegistry
from tests.schedule_recorder import RecordingSimulator
from tests.test_call_budget import (
    MACRO_RANKS, MACRO_ROUNDS, _check_macro, _macro_job,
)

#: recorded on commit 18ea7e3 (PR 12), before PR 15 touched the kernel
#: -- and four re-recorded once, for a declared model change of traced
#: runs only (a tracer no longer moves a collective off the macro tier, and
#: each macro instance leaves one ``mpi.collective`` record): their
#: clocks are now the untraced ones; then all six once more for a
#: declared change of the trace format (a message's outcome record is
#: its only record: ``net.send``, ``ckpt.begin`` and ``mlog.dup`` are
#: gone, the outcome record carries ``src_node``, a duplicate's twin
#: ``dup``, and ``repl.*`` records ``job``).  No clock moved; record
#: counts old -> new, the delta exactly the parent's ``net.send`` +
#: ``ckpt.begin`` records (no scenario wrote an ``mlog.dup``):
#:   crash-global                  2002 -> 1200   [746 + 56]
#:   crash-logged                  2957 -> 2031   [870 + 56]
#:   crash-replicated              7287 -> 3951   [3228 + 108]
#:   gray-limp-partition-crash     3981 -> 2333   [1544 + 104]
#:   sched-three-tenants           3663 -> 2183   [1404 + 76]
#:   lossy-partition-crash-metered 5490 -> 3272   [2114 + 104]
PINNED = {
    "crash-global": (
        "3.8467885501034544", 1200,
        "42c638aae2ad1551acd3038ce75d2ea8254e170a362c277500349dbcba90bfa1"),
    "crash-logged": (
        "3.755465621797866", 2031,
        "1db5ee8a82f085fcc38d7a30d8c6a89773f0b5e2eda195226d3c9da1cdb57abf"),
    "crash-replicated": (
        "2.917010285730769", 3951,
        "3340d4ea2c8477807604dc1172bb7e55d7592fe2fd446b4721adb04acfbac8e5"),
    "gray-limp-partition-crash": (
        "4.19697439140823", 2333,
        "1dbc6e02ddb24faaf839dba268bcccbd40b7cd1974551779568e633d9dc97818"),
    "sched-three-tenants": (
        "2.871228577487656", 2183,
        "dcaea82a541b6fdf8fc8ca7645b91de9d9d73fbc4d9fd12310557e0f7bd74a77"),
    # recorded on commit 69b6df7 (PR 19), before PR 20 made the lossy
    # and the observed delivery one record and one body
    "lossy-partition-crash-metered": (
        "8.667363092803315", 3272,
        "e5c584c71f2a17de3e506caffea2ead6b3abf84916b65f1bcab2146339bdba8c"),
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
#: Four moved once more with the ``PINNED`` model change, onto their
#: untraced counts: crash-global (7875, 22) -> (6675, 20), crash-logged
#: 7594 -> 7424, gray-limp-partition-crash 14502 -> 13166,
#: sched-three-tenants 10666 -> 10187.
#: Re-recorded once more for a declared event diet (one event per PMGR
#: rendezvous: the release succeeds the one event every arrival was
#: handed, not one per live arrival).  Old -> new, the delta exactly
#: the sum over the scenario's released rendezvous of its live arrival
#: events less one (releases x size in brackets; no peak moved):
#:   crash-global                  6675 -> 6647    [4 x 8]
#:   crash-logged                  7424 -> 7408    [2 x 8, 2 x 2]
#:   crash-replicated             21998 -> 21969   [4 x 8, 1 x 2]
#:   gray-limp-partition-crash    13166 -> 13138   [4 x 8]
#:   sched-three-tenants          10187 -> 10155   [10 x 4, 2 x 2]
#:   lossy-partition-crash-metered 17692 -> 17664  [4 x 8]
COUNTERS = {
    "crash-global": (6647, 20),
    "crash-logged": (7408, 22),
    "crash-replicated": (21969, 52),
    "gray-limp-partition-crash": (13138, 30),
    "sched-three-tenants": (10155, 40),
    "lossy-partition-crash-metered": (17664, 32),
}

#: sha256 of ``json.dumps(metrics.snapshot(), sort_keys=True)``; the
#: lossy scenario's recorded on commit 69b6df7, the other five on commit
#: 42fddd1, when each scenario gained a registry -- and two re-recorded
#: once since, when the registry became a view of the trace: the gauges
#: ``mlog.log_bytes`` (crash-logged, sched-three-tenants) and
#: ``sched.goodput`` (sched-three-tenants, one per job) have no trace
#: twin and went, every other key kept its value; and four once more
#: with the ``PINNED`` model change (``mpi.collectives{kind}`` is new);
#: and ``crash-replicated`` once more with the ``PINNED`` format change:
#: a message is counted as sent from its outcome record, so the 12
#: messages of the closing exchange still in flight when the run ends
#: (4 from each of nodes 4, 6 and 7, 4 bytes each) are no longer
#: counted -- ``net.msgs_sent`` 420 -> 416 and ``net.bytes_sent``
#: 11488 -> 11472 on each of the three; every other key kept its value;
#: and four once more when ``Histogram.percentile`` became nearest-rank
#: (it had rounded ``q/100 * (n-1)``): only ``ckpt.restore_s``'s ``p50``
#: moved -- crash-global and gray-limp-partition-crash 4.15628e-05 ->
#: 3.79817e-05, lossy-partition-crash-metered 0.0320551 -> 4.14928e-05,
#: sched-three-tenants 2.00918e-05 -> 2.00838e-05
METRICS = {
    "crash-global":
        "f454096c1f55bb15c2e39f658b3df51c1cc0a1df0326158515cdce118fe96d24",
    "crash-logged":
        "c6c1596f98b342a7fc48262519686e83401150a5762c406af1d71468d4cf8415",
    "crash-replicated":
        "88a20f61a8cae1ef1442dc310ded63b8529dcf05e6912f1d39d33b46b49b424f",
    "gray-limp-partition-crash":
        "0518f8f076790d9df51833abd3df77c86e643587660c49d93a1585dd1bc744b8",
    "sched-three-tenants":
        "c8daf001e8ab66f0bea5339f8cb46d155535a4facada5bf6f50c8b47401710e8",
    "lossy-partition-crash-metered":
        "75d1c39773580810583dae14beb8bd7904aa7043c17a4caa0bac5ed76da9e211",
}

#: sha256 of the dispatch sequence (``tests/schedule_recorder.py``);
#: recorded on commit 58d77b4 (PR 20), before PR 21 touched the wire
#: -- and re-recorded since for renames and relabels only: the safety-sweep
#: closure moved from ``Survivable.begin_recovery`` to
#: ``Fmirun.begin_recovery``, one entry in each scenario that sweeps
#: (``crash-replicated`` fails over and never sweeps); then a rank
#: became its own exit hook, ``RankProcess._dispatch_exit`` ->
#: ``FmiProcess``, 9 entries in each crash scenario, 20 in
#: ``sched-three-tenants``; four once more with the ``PINNED`` model
#: change; and once for a relabel: a message is named by its envelope's
#: index in first-dispatch order, not by the process-global
#: ``Envelope.seq`` it no longer has (every arrival entry, one to one)
SCHEDULE = {
    "crash-global":
        "b79b636a6a23f5c5d339c180b0c01634264a26bc3d67cca3af697e489ad515dc",
    "crash-logged":
        "da6b86eafa75a09d00ba5967fc29fe9316b9a6d1087a291dce94cf0ee2dfa548",
    "crash-replicated":
        "301799f86f88b7ebdbe4f3f5a89fc94ae50126efcbbb545d9c1d2416316073fe",
    "gray-limp-partition-crash":
        "a92fb496820380b3506e174e7d0f928834f38ccfbd9e3216744f63f11745abc9",
    "sched-three-tenants":
        "115246da79325d65b311054e6110e19e9f42faed9246fd0d6570523da5809f04",
    "lossy-partition-crash-metered":
        "ff0119c516d06ada0b96c0c0e7c774ed0dd5ef1a01085219147ce81f2230b07e",
}

#: the call budget's macro-tier run (``tests/test_call_budget.py``),
#: untraced, and the one pin where a collective of 1,024 ranks runs on
#: the macro tier: ``(schedule digest, repr(sim.now), (events_processed,
#: peak_heap))``.  Recorded on commit 472b942 and re-recorded three
#: times under the ``SCHEDULE`` rule, twice for renames: the exit hook,
#: ``RankProcess._dispatch_exit`` -> ``MpiRankProcess``, one entry per
#: rank (1,024); then the bulk's own callback,
#: ``MacroCollectives._complete.<locals>.<lambda>`` ->
#: ``_Instance._completed``, one entry per instance (2); then the
#: arrival relabel of ``SCHEDULE``, 2,048 entries.  The clock and the
#: counters held -- until the counters' one re-record, for the event
#: diet of one event per PMGR rendezvous: ``MPI_Init`` releases its
#: 1,024 ranks from one entry, (15108, 1984) -> (14085, 1984); the
#: schedule and the clock held
MACRO = (
    "c310c3e87a4958fb754a9c006d844fd2d0bf21b56ad148cdfa3c3b2f57bbdc02",
    "0.17006687372839502",
    (14085, 1984),
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


def _observed(sim, traced):
    """A tracer and a metrics registry on ``sim``, or neither."""
    if not traced:
        return None, None
    return Tracer(sim), MetricsRegistry(sim)


def _job(make_sim, app, recovery, nodes, spares, seed, traced):
    sim = make_sim()
    machine = Machine(sim, SIERRA.with_nodes(nodes), RngRegistry(seed))
    tracer, metrics = _observed(sim, traced)
    job = FmiJob(
        machine, app, num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, recovery=recovery,
                         spare_nodes=spares),
    )
    return sim, machine, (tracer, metrics), job


def _crash(make_sim, recovery, traced):
    """The ``test_obs_replay.py`` scenario: slot 1's node dies at 2.5 s."""
    replicated = recovery == "replicated"
    sim, machine, observers, job = _job(
        make_sim, _allreduce_app, recovery, nodes=10 if replicated else 6,
        spares=1, seed=1234, traced=traced)
    done = job.launch()
    victim = job.fmirun.node_slots[1].id
    _at(sim, 2.5, lambda: machine.fail_nodes([victim]))
    answers = sim.run(until=done)
    assert job.epoch == 1  # the scenario really recovered
    return (sim, *observers, answers, [job.transport])


def _gray(make_sim, traced):
    """A limping node, then a partition that heals, then a crash."""
    sim, machine, observers, job = _job(
        make_sim, bsp_app(12, work_s=0.25), "global", nodes=6, spares=1,
        seed=7, traced=traced)
    done = job.launch()
    slots = job.fmirun.node_slots
    limper, cut, victim = slots[2].id, slots[3].id, slots[0].id
    _at(sim, 0.6, lambda: machine.nodes[limper].set_limp(8.0, 4.0))
    _at(sim, 1.1, lambda: machine.fabric.partition([[cut]], tag="golden"))
    _at(sim, 1.3, machine.fabric.heal)
    _at(sim, 1.9, machine.nodes[limper].clear_limp)
    _at(sim, 2.4, lambda: machine.fail_nodes([victim]))
    answers = sim.run(until=done)
    assert job.epoch >= 1
    return (sim, *observers, answers, [job.transport])


def _lossy(make_sim, traced):
    """Lossy links with drop, duplicate and delay all armed, a
    drop-mode partition that heals, then a crash -- traced *and*
    metered, with level-2 flushes: the one scenario that crosses the
    omission model, the retransmitting cut and the metrics registry."""
    sim = make_sim()
    machine = Machine(sim, SIERRA.with_nodes(6), RngRegistry(11))
    tracer, metrics = _observed(sim, traced)
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
        machine.fabric.partition([[cut]], tag="golden")

    _at(sim, 0.4, lambda: transport.set_faults(model))
    _at(sim, 1.1, split)
    _at(sim, 1.3, machine.fabric.heal)
    _at(sim, 2.4, lambda: machine.fail_nodes([victim]))
    answers = sim.run(until=done)
    assert job.epoch >= 1 and job.level2_flushes > 0
    # every branch the scenario exists for was really taken
    assert transport.omission_drops and transport.omission_delays
    assert transport.omission_dups and transport.dup_dropped
    assert transport.partition_retries and transport.dropped_dead
    return sim, tracer, metrics, answers, [transport]


def _sched(make_sim, traced):
    """Three tenants, one per FMI family, on one shared machine; the
    global and the replicated tenant each lose a node."""
    sim = make_sim()
    machine = Machine(sim, SIERRA.with_nodes(16), RngRegistry(0))
    tracer, metrics = _observed(sim, traced)
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
    return (sim, tracer, metrics, [rec.result for rec in sched.records],
            [rec.job.transport for rec in sched.records])


#: each takes the simulator class to run on and whether to attach the
#: tracer and registry (without them both come back ``None``), and
#: returns ``(sim, tracer, metrics, answers, transports)``
SCENARIOS = {
    "crash-global": lambda make_sim, traced=True: _crash(
        make_sim, "global", traced),
    "crash-logged": lambda make_sim, traced=True: _crash(
        make_sim, "logged", traced),
    "crash-replicated": lambda make_sim, traced=True: _crash(
        make_sim, "replicated", traced),
    "gray-limp-partition-crash": lambda make_sim, traced=True: _gray(
        make_sim, traced),
    "sched-three-tenants": lambda make_sim, traced=True: _sched(
        make_sim, traced),
    "lossy-partition-crash-metered": lambda make_sim, traced=True: _lossy(
        make_sim, traced),
}


@functools.lru_cache(maxsize=None)
def traced(name):
    """One traced run of a scenario, as ``SCENARIOS`` returns it."""
    return SCENARIOS[name](Simulator)


@functools.lru_cache(maxsize=None)
def fingerprint(name):
    """``(pinned triple, kernel counters, metrics digest, answers)`` of
    one scenario run."""
    sim, tracer, metrics, answers, _transports = traced(name)
    text = dumps_jsonl(tracer)
    pinned = (repr(sim.now), len(tracer.events),
              hashlib.sha256(text.encode()).hexdigest())
    snapshot = json.dumps(metrics.snapshot(), sort_keys=True)
    digest = hashlib.sha256(snapshot.encode()).hexdigest()
    return (pinned, (sim.stats.events_processed, sim.stats.peak_heap),
            digest, answers)


@functools.lru_cache(maxsize=None)
def schedule(name):
    """The dispatch-sequence digest of one scenario, and that the
    single-stepped run computed what the inlined loop computes."""
    sim, tracer, _metrics, _answers, _tps = SCENARIOS[name](RecordingSimulator)
    assert (repr(sim.now), len(tracer.events)) == fingerprint(name)[0][:2]
    return sim.digest.hexdigest()


@functools.lru_cache(maxsize=None)
def macro_fingerprint():
    """``MACRO`` of this commit: the schedule from a recorded run, the
    counters from the inlined loop, which must end at the same float."""
    runs = []
    for make_sim in (RecordingSimulator, Simulator):
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


#: a message's one record: its delivery or one of the four drops
OUTCOMES = ("net.recv", "net.drop_dead", "net.drop_stale", "net.drop_dup",
            "net.drop_lseq_dup")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_each_resolved_message_leaves_one_record_and_counts_once(name):
    """One outcome record per delivery or drop the transports counted
    (a standby's sync would deliver the envelopes it buffered outside
    the transport; no scenario here has one), and ``net.msgs_sent``
    counts every record but a duplicate's twin."""
    _sim, tracer, metrics, _answers, transports = traced(name)
    records = [ev for ev in tracer.events if ev.name in OUTCOMES]
    resolved = sum(
        sum(ctx.matching.delivered for ctx in tp.contexts) + tp.dropped_dead
        + tp.dropped_stale + tp.dup_dropped + tp.lseq_dup_dropped
        for tp in transports)
    assert len(records) == resolved
    sent = [ev for ev in records if "dup" not in ev.args]
    assert metrics.sum_counters("net.msgs_sent") == len(sent)
    assert metrics.sum_counters("net.bytes_sent") == sum(
        ev.args["nbytes"] for ev in sent)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_trace_invariant_holds_on_the_traced_run(name):
    """``sched-three-tenants`` included: a rollback tenant's restores
    are judged apart from its replicated neighbour's ``repl.*``
    records."""
    _sim, tracer, _metrics, _answers, _tps = traced(name)
    assert TraceInvariants().replay(tracer.events).violations() == []


def test_the_untraced_macro_tier_matches_the_recorded_commit():
    assert macro_fingerprint() == MACRO


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_tracer_changes_no_answer(name):
    """Observation picks no engine: the scenario run bare ends on the
    clock, the kernel event count and the answers of the traced run."""
    sim, _tracer, _metrics, answers, _tps = SCENARIOS[name](Simulator, False)
    (now, _count, _digest), (events, _peak), _m, traced = fingerprint(name)
    assert (repr(sim.now), sim.stats.events_processed) == (now, events)
    np.testing.assert_equal(traced, answers)


def test_a_tracer_keeps_the_macro_tier_and_writes_one_record_per_instance():
    sim, job = _macro_job()
    tracer = Tracer(sim)
    _check_macro(job, sim.run(until=job.launch()))
    _digest, now, (events, _peak) = macro_fingerprint()
    assert (repr(sim.now), sim.stats.events_processed) == (now, events)
    records = [ev for ev in tracer.events if ev.name == "mpi.collective"]
    assert [(ev.args["kind"], ev.args["n"], ev.args["size"]) for ev in records
            ] == [("allreduce", n, MACRO_RANKS) for n in range(MACRO_ROUNDS)]


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
        (now, count, digest), counters, metrics, _answers = fingerprint(
            scenario)
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
