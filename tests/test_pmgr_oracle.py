"""The one-event rendezvous against the event-per-arrival oracle.

:class:`~repro.net.pmgr.PmgrRendezvous` hands every arrival the same
event and releases its waiters in one dispatch; the rendezvous it
replaced, one event per arrival and one queue entry per waiter at the
release, is kept in ``tests/pmgr_reference.py``.  Both get the same
draws -- sizes, arrival instants, kills and interrupts, some at the
release instant itself, before or after the release's own entry -- on
the single-stepping :class:`RecordingSimulator` and on the batch-walking
:class:`~repro.simt.kernel.Simulator`, and must agree on the dispatch
schedule, ``complete_at`` / ``released_at`` and which processes resumed
when.  A small FMI job whose recovery H1 meets a second failure runs on
both too: the same schedule, answers and rendezvous.

What is not drawn: a waiter's resume that kills or interrupts another
waiter of the same rendezvous.  No rank does (kills and notices come
from fault injectors and fmirun's exit callbacks, entries of their
own), and with one event the later waiter's resume is already under
way when it would be withdrawn.
"""

import cProfile
import pstats
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi import job as fmi_job
from repro.mpi.runtime import MpiJob
from repro.net.pmgr import PmgrRendezvous
from repro.simt import Simulator
from repro.simt.process import Interrupt
from repro.simt.rng import RngRegistry
from tests.pmgr_reference import PmgrRendezvous as ReferenceRendezvous
from tests.schedule_recorder import RecordingSimulator

_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5])
#: ``(what, at, hops)``: the act runs ``hops`` zero-delay entries after
#: a timer at ``at`` fires -- 0 before a release due then, 1 between
#: the release and its waiters, 2 after them
_ACT = st.tuples(st.sampled_from(["kill", "interrupt"]), _TIMES,
                 st.integers(0, 2))
_PEOPLE = st.lists(st.tuples(_TIMES, st.one_of(st.none(), _ACT)),
                   min_size=1, max_size=6)


def _later(sim, at, hops, act):
    """Run ``act()`` ``hops`` zero-delay entries after time ``at``."""
    def step(_evt, left=hops):
        if left:
            sim.timeout(0.0).callbacks.append(
                lambda e: step(e, left - 1))
        else:
            act()
    sim.timeout(at).callbacks.append(step)


def _drive(make_sim, rdv_cls, size, cost, people):
    """Run one draw; returns everything the two rendezvous must agree
    on."""
    sim = make_sim()
    rdv = rdv_cls(sim, size, cost)
    log = []

    def participant(i, arrival):
        try:
            yield sim.timeout(arrival)
            yield rdv.arrive()
            log.append((repr(sim.now), i, "released"))
            yield sim.timeout(0.0)  # the rank goes on at the instant
            log.append((repr(sim.now), i, "on"))
        except Interrupt:
            log.append((repr(sim.now), i, "interrupted"))
        except RuntimeError as exc:  # overfull, or already released
            log.append((repr(sim.now), i, str(exc)))

    def noise():  # other zero-delay work at every instant drawn
        for at in (0.0, 0.5, 1.0, 1.5):
            yield sim.timeout(at - sim.now)
            for _ in range(3):
                yield sim.timeout(0.0)
                log.append((repr(sim.now), "noise"))

    sim.spawn(noise(), name="noise")
    procs = [sim.spawn(participant(i, arrival), name=f"p{i}")
             for i, (arrival, _act) in enumerate(people)]
    for proc, (_arrival, act) in zip(procs, people):
        if act is not None:
            what, at, hops = act
            _later(sim, at, hops, getattr(proc, what))
    sim.run()
    return log, getattr(sim, "entries", None), rdv.complete_at, rdv.released_at


@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(cost=st.sampled_from([0.0, 0.5]), people=_PEOPLE,
       slack=st.sampled_from([-1, 0, 0, 0, 1]))
# one waiter killed
@example(cost=0.5, people=[(0.0, ("kill", 0.5, 0)), (0.0, None),
                           (1.0, None)], slack=0)
# every waiter killed before the last arrival: a fresh event
@example(cost=0.5, people=[(0.0, ("kill", 0.5, 0)),
                           (0.0, ("kill", 0.5, 1)), (1.0, None)], slack=0)
# a kill at the release instant: before, between and after
@example(cost=0.5, people=[(0.0, ("kill", 1.5, 0)), (1.0, None)], slack=0)
@example(cost=0.5, people=[(0.0, ("kill", 1.5, 1)), (1.0, None)], slack=0)
@example(cost=0.5, people=[(0.0, ("kill", 1.5, 2)), (1.0, None)], slack=0)
# every waiter interrupted, then the release
@example(cost=0.0, people=[(0.0, ("interrupt", 0.5, 0)), (1.0, None)],
         slack=0)
def test_the_one_event_releases_as_the_event_per_arrival_did(cost, people,
                                                             slack):
    size = max(1, len(people) + slack)
    for make_sim in (partial(RecordingSimulator, keep=True), Simulator):
        got = _drive(make_sim, PmgrRendezvous, size, cost, people)
        want = _drive(make_sim, ReferenceRendezvous, size, cost, people)
        assert got == want, make_sim


def test_the_release_is_one_dispatch():
    sim = Simulator()
    rdv = PmgrRendezvous(sim, 4, 0.5)
    order = []

    def participant(i):
        yield sim.timeout(0.25 * i)
        yield rdv.arrive()
        order.append(i)

    for i in range(4):
        sim.spawn(participant(i))
    sim.run()
    assert order == [0, 1, 2, 3] and rdv.released_at == 1.25
    # four boots, four starts, one exchange, one release, four exits
    assert sim.stats.events_processed == 14


def test_a_fully_killed_rendezvous_hands_the_next_arrival_a_fresh_event():
    sim = Simulator()
    rdv = PmgrRendezvous(sim, 3, 0.0)
    first = rdv.arrive()
    waiter = sim.spawn((lambda: (yield first))())
    sim.run()
    waiter.kill("gone")
    assert first.cancelled
    second = rdv.arrive()
    assert second is not first and not second.cancelled
    assert rdv.arrive() is second


def test_an_abort_inside_mpi_init_withdraws_the_one_event_first():
    # every rank waits on MPI_Init's event when a node dies: the abort
    # withdraws the event before it kills the ranks, so no kill takes
    # its waiter out of the front of the event's list (n such removals
    # are O(n^2): 0.42 s at 65,536 ranks), and no rank resumes
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(64), RngRegistry(14))
    started = []

    def app(api):
        started.append(api.rank)
        yield sim.timeout(1.0)

    job = MpiJob(machine, app, 1024, procs_per_node=16)
    done = job.launch()
    spec = machine.spec
    sim.run(until=spec.proc_spawn_latency + spec.exec_load_latency
            + spec.mpi_init_time(1024) / 2)
    rendezvous = job.rank_procs[0].rendezvous
    assert rendezvous.complete_at is not None
    assert rendezvous.released_at is None
    machine.node(2).crash("x")
    profile = cProfile.Profile()
    profile.enable()
    sim.run()
    profile.disable()
    assert done.triggered and not done.ok and started == []
    assert not any(p.alive for p in job.rank_procs.values())
    assert rendezvous._event.cancelled
    removes = [nc for (_f, _l, name), (_cc, nc, *_)
               in pstats.Stats(profile).stats.items()
               if name == "<method 'remove' of 'list' objects>"]
    assert removes == [], removes


# ------------------------------------------------------------ FMI's H1
def _fmi_run(rdv_cls, first, second):
    """A 4-rank FMI job: node of rank ``first[0]`` crashes at
    ``first[1]``, then the one of rank ``second[0]`` at ``second[1]``
    -- or, for ``second[1] is None``, ``second[2]`` zero-delay entries
    after the recovery H1 is due to release (``H1_RELEASE``).  Returns
    the schedule, the outcome and every rendezvous the job made."""
    made = []

    class Recorded(rdv_cls):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    sim = RecordingSimulator(keep=True)
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    saved = fmi_job.PmgrRendezvous
    fmi_job.PmgrRendezvous = Recorded
    try:
        job = FmiJob(machine, bsp_app(6, work_s=0.2), num_ranks=4,
                     procs_per_node=1,
                     config=FmiConfig(interval=1, xor_group_size=4,
                                      spare_nodes=2))
        done = job.launch()
        for rank, at, hops in (first, second):
            def crash(rank=rank):
                job.rank_procs[rank].node.crash("injected")
            _later(sim, H1_RELEASE if at is None else at, hops, crash)
        outcome = sim.run(until=done)  # the recorder returns a failure
        outcome = (repr(outcome) if isinstance(outcome, BaseException)
                   else [u.tolist() for u in outcome])
    finally:
        fmi_job.PmgrRendezvous = saved
    return (sim.entries, outcome, job.recovery_count,
            [(r.size, r.cost, r.complete_at, r.released_at) for r in made])


#: when the first crash below (rank 1 at 0.7 s) has its recovery H1
#: release: read off a run, so a kill can land on exactly that float
H1_RELEASE = _fmi_run(PmgrRendezvous, (1, 0.7, 0), (0, 99.0, 0))[3][2][3]


@settings(max_examples=max(10, settings.default.max_examples // 5),
          deadline=None)
@given(second=st.tuples(
    st.integers(0, 3),
    st.one_of(st.none(), st.sampled_from(
        [0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2])),
    st.integers(0, 2)))
# a second failure at the H1 release, before, between and after the
# release and its waiters: the replacement's (recovered) and a
# survivor's in the same XOR group (an abort)
@example(second=(1, None, 0))
@example(second=(1, None, 1))
@example(second=(1, None, 2))
@example(second=(2, None, 2))
# the replacement itself dies while the survivors wait in H1
@example(second=(1, 0.95, 0))
def test_an_fmi_h1_with_a_second_failure_runs_as_the_oracle_does(second):
    first = (1, 0.7, 0)
    got = _fmi_run(PmgrRendezvous, first, second)
    want = _fmi_run(ReferenceRendezvous, first, second)
    assert got[1:] == want[1:]
    assert got[0] == want[0]


def test_the_oracle_job_recovers_bitwise():
    # the replacement dies as the recovery H1 releases: a third epoch,
    # whose H1 and H2 complete it
    _entries, outcome, recoveries, made = _fmi_run(
        PmgrRendezvous, (1, 0.7, 0), (1, None, 2))
    assert recoveries == 2 and made[2][3] == H1_RELEASE and len(made) == 5
    for rank, u in enumerate(outcome):
        assert np.array_equal(u, expected_bsp_state(rank, 4, 6))
