"""Deterministic replay: tracing must observe, never perturb.

The same seeded failure scenario is run three ways -- traced, traced
again, and untraced -- and must produce (a) byte-identical JSONL
traces across the two traced runs and (b) identical final application
state and virtual-clock time whether or not the tracer was attached.
That is the contract that lets benchmarks flip tracing on without
invalidating their measurements.
"""

import numpy as np

from repro.cluster import Machine
from repro.cluster.failures import TraceInjector
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.obs import MetricsRegistry, Tracer, dumps_jsonl, read_jsonl, write_jsonl
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

NUM_RANKS = 8
PROCS_PER_NODE = 2
NUM_LOOPS = 6
CRASH_AT = 2.5
SEED = 1234


def application(fmi):
    state = np.zeros(4, dtype=np.float64)
    yield from fmi.init()
    while True:
        n = yield from fmi.loop([state])
        if n >= NUM_LOOPS:
            break
        yield fmi.elapse(0.4)
        state[0] = n + 1
        state[1] = yield from fmi.allreduce(float(fmi.rank + n))
    yield from fmi.finalize()
    return state


def run_scenario(traced: bool):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(6), RngRegistry(SEED))
    tracer = Tracer(sim) if traced else None
    metrics = MetricsRegistry(sim) if traced else None
    job = FmiJob(
        machine, application, num_ranks=NUM_RANKS,
        procs_per_node=PROCS_PER_NODE,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1),
    )
    done = job.launch()
    victim = job.fmirun.node_slots[1].id
    injector = TraceInjector(sim, [(CRASH_AT, [victim])], kill=machine.fail_nodes)
    injector.start()
    results = sim.run(until=done)
    return sim, job, tracer, metrics, results


def test_replay_produces_byte_identical_traces():
    _sim1, job1, tracer1, metrics1, res1 = run_scenario(traced=True)
    _sim2, job2, tracer2, metrics2, res2 = run_scenario(traced=True)
    assert job1.epoch == job2.epoch == 1  # the scenario really failed over

    text1 = dumps_jsonl(tracer1)
    text2 = dumps_jsonl(tracer2)
    assert len(tracer1.events) > 0
    assert text1.encode() == text2.encode()

    # Metrics snapshots are equally deterministic.
    assert metrics1.snapshot() == metrics2.snapshot()

    # And the application's answers match, of course.
    for a, b in zip(res1, res2):
        np.testing.assert_array_equal(a, b)


def test_tracing_does_not_perturb_the_simulation():
    sim_on, job_on, tracer, _metrics, res_on = run_scenario(traced=True)
    sim_off, job_off, none_tracer, _none, res_off = run_scenario(traced=False)
    assert none_tracer is None
    assert len(tracer.events) > 0

    # Same virtual end time: the tracer scheduled nothing.
    assert sim_on.now == sim_off.now
    # Same recovery history and final state machine trajectory.
    assert job_on.epoch == job_off.epoch
    assert job_on.recovery_causes == job_off.recovery_causes
    assert job_on.recovered_at == job_off.recovered_at
    assert {r: p.incarnation for r, p in job_on.rank_procs.items()} == {
        r: p.incarnation for r, p in job_off.rank_procs.items()
    }
    # Bit-identical application results.
    for a, b in zip(res_on, res_off):
        np.testing.assert_array_equal(a, b)


def test_jsonl_roundtrip(tmp_path):
    _sim, _job, tracer, _metrics, _res = run_scenario(traced=True)
    path = str(tmp_path / "trace.jsonl")
    count = write_jsonl(tracer, path)
    assert count == len(tracer.events)
    back = read_jsonl(path)
    assert len(back) == len(tracer.events)
    for orig, loaded in zip(tracer.events, back):
        assert (orig.name, orig.cat, orig.ph, orig.ts) == (
            loaded.name, loaded.cat, loaded.ph, loaded.ts
        )
        assert orig.dur == loaded.dur
        assert (orig.rank, orig.node, orig.incarnation, orig.epoch) == (
            loaded.rank, loaded.node, loaded.incarnation, loaded.epoch
        )
        assert orig.args == loaded.args
    # Re-serialising the loaded events reproduces the file bytes.
    assert dumps_jsonl(back) == dumps_jsonl(tracer)
