"""Service mode end-to-end: many tenants, one cluster, shared fate nowhere.

The acceptance scenario runs eight concurrent jobs -- two per recovery
family (global, logged, replicated, failstop) -- on one shared cluster
through seeded mid-run failures, and demands:

* every job's answer is bitwise identical to its solo failure-free run;
* per-tenant metrics are correctly segregated by ``job_id`` (killed
  tenants show recoveries/restarts, bystanders show none);
* the whole run replays byte-identically from its trace (same seeds ->
  same JSONL, to the byte);
* several tenants genuinely overlap (``max_concurrent``), i.e. this is
  service mode and not accidental serialization.

Plus focused unit tests for the scheduler policies (FCFS, EASY
backfill, rejection) on hand-built streams.
"""

import json

import numpy as np
import pytest

from repro.apps.synthetic import expected_bsp_state
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import dumps_jsonl
from repro.sched import JobSpec, StreamScheduler, trace_arrivals
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

MAX_EVENTS = 3_000_000

# ----------------------------------------------------------- the e2e stream
SHAPE = dict(ranks=4, ppn=2, iterations=8, work_s=0.2)
GLOBAL = FmiConfig(interval=2, spare_nodes=1)
LOGGED = FmiConfig(interval=2, spare_nodes=1, recovery="logged")
REPLICATED = FmiConfig(interval=2, spare_nodes=1, recovery="replicated",
                       replication_degree=2)

#: eight tenants, two per recovery family (no config: fail-stop),
#: staggered arrivals
E2E_SPECS = [
    (0.0, JobSpec(name="glb-a", config=GLOBAL, **SHAPE)),
    (0.2, JobSpec(name="log-a", config=LOGGED, **SHAPE)),
    (0.4, JobSpec(name="rep-a", config=REPLICATED, **SHAPE)),
    (0.6, JobSpec(name="fs-a", **SHAPE)),
    (0.8, JobSpec(name="glb-b", config=GLOBAL, **SHAPE)),
    (1.0, JobSpec(name="log-b", config=LOGGED, **SHAPE)),
    (1.2, JobSpec(name="rep-b", config=REPLICATED, **SHAPE)),
    (1.4, JobSpec(name="fs-b", **SHAPE)),
]

#: tenants that take a seeded kill (spec name -> seconds after start);
#: one per family -- the FMI families recover in place, the failstop
#: tenant aborts and relaunches through the queue
KILLS = {"glb-a": 0.8, "log-a": 0.9, "rep-a": 0.7, "fs-a": 0.5}

E2E_NODES = 24


def _run_e2e():
    """One deterministic run of the acceptance stream; returns
    (summary, tracer-jsonl, metrics registry, scheduler)."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(E2E_NODES), RngRegistry(0))
    tracer = Tracer(sim)
    metrics = MetricsRegistry(sim)
    sched = StreamScheduler(machine, backfill=True, spare_pool=2)

    killed = set()

    def aim(rec):
        delay = KILLS.get(rec.spec.name)
        if delay is None or rec.spec.name in killed:
            return
        killed.add(rec.spec.name)

        def fire(_e, rec=rec):
            job = rec.job
            if job is None or job.finished:
                return
            # FMI tenants expose slot -> node; failstop jobs their nodes.
            node = (job.fmirun.node_slots[0]
                    if hasattr(job, "fmirun") else job.nodes[0])
            if node.alive:
                node.crash(f"e2e kill {rec.job_id}")

        timer = sim.timeout(delay)
        timer.callbacks.append(fire)

    sched.on_start(aim)
    sched.submit_many(trace_arrivals(E2E_SPECS))
    drained = sched.drain()
    sim.run(until=drained, max_events=MAX_EVENTS)
    assert drained.triggered, "e2e stream did not drain"
    return drained.value, dumps_jsonl(tracer), metrics, sched, machine


@pytest.fixture(scope="module")
def e2e():
    return _run_e2e()


def test_e2e_all_jobs_complete_bitwise(e2e):
    summary, _, _, _, _ = e2e
    assert summary.jobs == 8
    assert summary.completed == 8, [
        (r.job_id, r.state, r.failure) for r in summary.records
    ]
    for rec in summary.records:
        want = [
            expected_bsp_state(r, rec.spec.ranks, rec.spec.iterations)
            for r in range(rec.spec.ranks)
        ]
        for rank, (got, ref) in enumerate(zip(rec.result, want)):
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, ref), (
                f"{rec.job_id} rank {rank}: answer diverged from solo run"
            )


def test_e2e_jobs_actually_overlap(e2e):
    _, _, _, sched, _ = e2e
    assert sched.max_concurrent >= 3, (
        f"only {sched.max_concurrent} tenants ever ran concurrently"
    )


def test_e2e_metrics_segregated_per_tenant(e2e):
    summary, _, metrics, _, _ = e2e
    recs = {r.spec.name: r for r in summary.records}
    for name, rec in recs.items():
        recoveries = metrics.counter("fmi.recoveries", job=rec.job_id).value
        if name in KILLS and rec.spec.config is not None:
            assert recoveries >= 1, f"{rec.job_id} took a kill, 0 recoveries"
        else:
            # Bystanders and failstop tenants never open an FMI epoch.
            assert recoveries == 0, (
                f"{rec.job_id} shows {recoveries} recoveries "
                f"it never performed"
            )
        restarts = metrics.counter("sched.restarts", job=rec.job_id).value
        if name == "fs-a":
            assert restarts >= 1, "killed failstop tenant never requeued"
        elif name not in KILLS:
            assert restarts == 0
        # Every tenant's queue wait was recorded exactly once.
        assert metrics.histogram("sched.wait_s", job=rec.job_id).count == 1


def test_e2e_a_restarted_tenant_waited_once(e2e):
    # The record and the ``sched.finish`` event read the first start,
    # as the metric does: the relaunch is service, not queue wait.
    summary, jsonl, metrics, _, _ = e2e
    rec = next(r for r in summary.records if r.spec.name == "fs-a")
    assert rec.job_id == "fs-a#3" and rec.restarts >= 1
    wait = metrics.histogram("sched.wait_s", job=rec.job_id)
    assert wait.count == 1 and rec.wait_s == wait.total == 0.0
    finish = [ev for ev in map(json.loads, jsonl.splitlines())
              if ev["name"] == "sched.finish"
              and ev["args"]["job"] == rec.job_id]
    assert [ev["args"]["wait"] for ev in finish] == [rec.wait_s]


def test_e2e_no_node_double_booked(e2e):
    summary, _, _, _, _ = e2e
    busy = {}
    for rec in summary.records:
        for start, end, nodes in rec.attempts:
            for nid in nodes:
                busy.setdefault(nid, []).append((start, end, rec.job_id))
    for nid, spans in busy.items():
        spans.sort()
        for (s0, e0, j0), (s1, e1, j1) in zip(spans, spans[1:]):
            assert j0 == j1 or s1 >= e0, (
                f"node {nid}: {j0} [{s0},{e0}) overlaps {j1} [{s1},{e1})"
            )


def test_e2e_conservation_after_drain(e2e):
    _, _, _, sched, machine = e2e
    sched.shutdown()
    assert machine.rm.idle_count == len(machine.live_nodes)


def test_e2e_replays_byte_identical():
    _, jsonl_a, _, _, _ = _run_e2e()
    _, jsonl_b, _, _, _ = _run_e2e()
    assert jsonl_a == jsonl_b, "same seed replayed to a different trace"


# ------------------------------------------------------- policy unit tests
def _mini(num_nodes, **sched_kw):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(0))
    sched = StreamScheduler(machine, **sched_kw)
    return sim, machine, sched


LONG = JobSpec(name="long", ranks=4, ppn=1, iterations=10, work_s=0.2)
WIDE = JobSpec(name="wide", ranks=4, ppn=1, iterations=2, work_s=0.1)
SHORT = JobSpec(name="short", ranks=2, ppn=1, iterations=1, work_s=0.05)


def test_backfill_short_job_jumps_blocked_head():
    sim, _machine, sched = _mini(6, backfill=True)
    sched.submit(LONG, at=0.0)     # takes 4 of 6 nodes
    sched.submit(WIDE, at=0.1)     # blocked head: needs 4, only 2 idle
    short = sched.submit(SHORT, at=0.2)  # fits now, ends before the shadow
    drained = sched.drain()
    sim.run(until=drained, max_events=MAX_EVENTS)
    summary = drained.value
    assert summary.completed == 3
    assert short.backfilled
    assert short.started_at < [
        r for r in summary.records if r.spec.name == "wide"
    ][0].started_at


def test_no_backfill_is_strict_fcfs():
    sim, _machine, sched = _mini(6, backfill=False)
    sched.submit(LONG, at=0.0)
    wide = sched.submit(WIDE, at=0.1)
    short = sched.submit(SHORT, at=0.2)
    drained = sched.drain()
    sim.run(until=drained, max_events=MAX_EVENTS)
    assert drained.value.completed == 3
    assert not short.backfilled
    assert short.started_at >= wide.started_at


def test_unsatisfiable_job_rejected_not_starving():
    sim, _machine, sched = _mini(2, backfill=True)
    huge = sched.submit(JobSpec(name="huge", ranks=8, ppn=1, iterations=1,
                                work_s=0.05), at=0.0)
    small = sched.submit(SHORT, at=0.1)
    drained = sched.drain()
    sim.run(until=drained, max_events=MAX_EVENTS)
    assert huge.state == "rejected"
    assert small.state == "done"
