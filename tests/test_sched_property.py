"""Property-based tests (hypothesis) for the stream scheduler.

Each example generates a small shared cluster and a random job stream
(mixed recovery families, geometries, arrival times) and drives it to
drain under a random policy mix.  Checked invariants:

* **no double-booking** -- no node serves two tenants at once, ever
  (checked against the per-attempt occupancy ledger);
* **no starvation** -- FCFS with EASY backfill always drains: every
  satisfiable job completes, and a job only ever backfills past the
  head while the head genuinely cannot fit;
* **FCFS order** -- non-backfilled first starts happen in submission
  order;
* **conservation** -- every start grants exactly the spec's footprint,
  and after the stream drains every node is back in the idle pool.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig
from repro.sched import JobSpec, StreamScheduler
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

MAX_EVENTS = 1_500_000
#: 1 at tier-1, 10 under ``--hypothesis-profile=deep`` (``conftest.py``)
_SCALE = max(1, settings.default.max_examples // 100)


# ------------------------------------------------------------- strategies
def job_specs():
    # ranks >= 2: a 1-rank FMI job has no XOR group to encode into.
    return st.builds(
        JobSpec,
        name=st.just("j"),
        ranks=st.sampled_from([2, 4]),
        ppn=st.just(1),
        # global rollback, or fail-stop (no config)
        config=st.sampled_from([FmiConfig(interval=1, spare_nodes=0), None]),
        iterations=st.integers(1, 3),
        work_s=st.sampled_from([0.05, 0.1]),
    )


streams = st.lists(
    st.tuples(job_specs(), st.integers(0, 40)),  # (spec, arrival decisecond)
    min_size=2,
    max_size=7,
)


def run_stream(num_nodes, stream, backfill, spare_pool):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(0))
    sched = StreamScheduler(machine, backfill=backfill, spare_pool=spare_pool)
    # Arrival streams are time-ordered (as poisson_arrivals/trace_arrivals
    # produce them), so submission seq == arrival order.
    for spec, at_ds in sorted(stream, key=lambda p: p[1]):
        sched.submit(spec, at=at_ds / 10.0)
    drained = sched.drain()
    sim.run(until=drained, max_events=MAX_EVENTS)
    assert drained.triggered, "stream failed to drain (starvation/livelock)"
    return machine, sched, drained.value


def assert_invariants(machine, sched, summary):
    cluster = machine.spec.num_nodes
    # -- every job reached a terminal state; satisfiable ones completed
    for rec in summary.records:
        if rec.spec.total_nodes <= cluster:
            assert rec.state == "done", (rec.job_id, rec.state, rec.failure)
            want = rec.spec.expected_results()
            assert all(
                np.array_equal(g, w) for g, w in zip(rec.result, want)
            ), f"{rec.job_id} diverged from its solo run"
        else:
            assert rec.state == "rejected"
    # -- no double-booking across tenants
    busy = {}
    for rec in summary.records:
        for start, end, nodes in rec.attempts:
            assert len(nodes) == rec.spec.total_nodes
            for nid in nodes:
                busy.setdefault(nid, []).append((start, end, rec.job_id))
    for nid, spans in busy.items():
        spans.sort()
        for (s0, e0, j0), (s1, e1, j1) in zip(spans, spans[1:]):
            assert j0 == j1 or s1 >= e0, (
                f"node {nid} double-booked: {j0} [{s0},{e0}) vs {j1} [{s1},{e1})"
            )
    # -- a backfilled start only happens while the head cannot fit
    for rec in summary.records:
        if rec.backfilled and rec.head_need_at_start is not None:
            assert rec.idle_before_start < rec.head_need_at_start, (
                f"{rec.job_id} backfilled although the head "
                f"(need {rec.head_need_at_start}) had "
                f"{rec.idle_before_start} idle nodes"
            )
    # -- conservation: after drain + shutdown every node is idle again
    sched.shutdown()
    assert machine.rm.idle_count == len(machine.live_nodes)


@settings(max_examples=25 * _SCALE, deadline=None)
@given(
    num_nodes=st.integers(3, 10),
    stream=streams,
    backfill=st.booleans(),
    spare_pool=st.integers(0, 2),
)
def test_stream_invariants(num_nodes, stream, backfill, spare_pool):
    machine, sched, summary = run_stream(
        num_nodes, stream, backfill, spare_pool=spare_pool
    )
    assert_invariants(machine, sched, summary)
    # FCFS: non-backfilled first starts happen in submission order.
    recs = [r for r in summary.records
            if not r.backfilled and r.started_at is not None
            and r.restarts == 0]
    order = sorted(recs, key=lambda r: (r.started_at, r.seq))
    assert [r.seq for r in order] == sorted(r.seq for r in order)
