"""One legality rule per layer, applied at construction by every entry point.

``repro.runtime.check_geometry`` is the geometry rule of both stacks;
``FmiConfig.check_job`` adds the XOR group layout and returns the node
footprint.  ``FmiJob`` (through ``Fmirun.bind``), ``MpiJob``,
``MpiRestartDriver``, ``repro.sched.JobSpec`` and
``repro.chaos.Campaign`` all refuse an illegal job when it is built, so
nothing illegal ever holds a node.  The last test is the configuration
lattice under one seeded node kill: every draw either is refused at
construction or runs to the bitwise failure-free answer (the one
stated exception is in its docstring).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    AtTime, Campaign, ChaosEngine, KillRandomNode, Rule, Scenario,
    TraceInvariants,
)
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.errors import FmiAbort
from repro.mpi.runtime import MpiJob, MpiRestartDriver
from repro.obs import Tracer
from repro.sched import JobSpec, StreamScheduler
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

#: 1 at tier-1, 10 under ``--hypothesis-profile=deep`` (``conftest.py``)
_SCALE = max(1, settings.default.max_examples // 100)


def make(num_nodes=8, seed=0):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))


def idle_app(ctx):
    yield ctx.elapse(0.1)


# ----------------------------------------------------- one refusal table
#: (ranks, ppn, FmiConfig knobs over interval=1 / xor_group_size=4, the
#: refusal it must raise -- None for a legal job)
ROWS = [
    (5, 2, {}, "multiple of procs_per_node"),
    (0, 1, {}, "must be >= 1"),
    (2, 2, {}, "XOR group needs >= 2 nodes"),  # one node: no group
    (6, 1, {}, "multiple of the XOR group size"),
    (12, 4, {"xor_group_size": 2}, "multiple of the XOR group size"),
    (8, 2, {"recovery": "logged", "level2_every": 1}, "multilevel"),
    (8, 2, {"recovery": "replicated", "replication_degree": 3}, "spare_nodes >="),
    (8, 2, {"interval": 2.5}, "must be an integer"),
    (8, 2, {"spare_nodes": float("nan")}, "must be an integer"),
    (8, 2, {"recovery": "bogus"}, "unknown recovery mode"),
    (8, 2, {"redundancy": "raid"}, "unknown redundancy scheme"),
    (8, 2, {}, None),
    (2, 1, {"xor_group_size": 16}, None),  # the group clamps to 2 nodes
    (8, 2, {"recovery": "logged", "redundancy": "partner"}, None),
    (8, 2, {"recovery": "replicated", "replication_degree": 3,
            "spare_nodes": 2}, None),
]

ENTRY_POINTS = {
    "FmiJob": lambda machine, r, p, cfg: FmiJob(
        machine, idle_app, num_ranks=r, procs_per_node=p, config=cfg()),
    "JobSpec": lambda machine, r, p, cfg: JobSpec(ranks=r, ppn=p, config=cfg()),
    "Campaign": lambda machine, r, p, cfg: Campaign(
        "legality", "", lambda rng, c: [], num_ranks=r, ppn=p, config=cfg()),
}


@pytest.mark.parametrize("ranks,ppn,knobs,refusal", ROWS)
def test_every_entry_point_gives_the_same_verdict(ranks, ppn, knobs, refusal):
    _sim, machine = make()

    def cfg():
        return FmiConfig(**{"interval": 1, "xor_group_size": 4, **knobs})

    messages = {}
    for name, build in ENTRY_POINTS.items():
        try:
            build(machine, ranks, ppn, cfg)
        except ValueError as exc:
            messages[name] = str(exc)
    if refusal is None:
        assert messages == {}
    else:
        assert set(messages) == set(ENTRY_POINTS)
        assert len(set(messages.values())) == 1, messages
        assert refusal in messages["JobSpec"]
    # Construction never allocates, legal or not.
    assert machine.rm.idle_count == 8


def test_spec_and_campaign_footprints_agree_with_the_rule():
    config = FmiConfig(interval=1, xor_group_size=4, recovery="replicated",
                       replication_degree=3, spare_nodes=2)
    assert config.check_job(8, 2) == (12, 2)
    spec = JobSpec(ranks=8, ppn=2, config=config)
    assert spec.footprint == (12, 2) and spec.total_nodes == 14
    campaign = Campaign("c", "", lambda rng, c: [], config=config,
                        tenants=2, pool_extra=1)
    assert campaign.nodes_per_tenant == 14 and campaign.total_nodes == 29
    failstop = JobSpec(ranks=8, ppn=2)
    assert failstop.footprint == (4, 0) and failstop.total_nodes == 4


# ---------------------------------------------- the scheduler's illegal specs
def test_illegal_specs_never_reach_the_scheduler():
    """These specs used to be admitted, allocated, and crash the stream
    at launch with their nodes still held."""
    sim, machine = make(8)
    sched = StreamScheduler(machine)
    illegal = [
        # one node: no XOR group
        lambda: JobSpec(ranks=2, ppn=2, config=FmiConfig(interval=1)),
        # six nodes in groups of four
        lambda: JobSpec(ranks=6, ppn=1, config=FmiConfig(
            interval=1, spare_nodes=0, xor_group_size=4)),
        # the logged plane has no level-2 tier
        lambda: JobSpec(ranks=4, ppn=2, config=FmiConfig(
            interval=1, recovery="logged", level2_every=1)),
    ]
    for build in illegal:
        with pytest.raises(ValueError):
            sched.submit(build(), at=1.0)
    legal = sched.submit(JobSpec(ranks=4, ppn=2, iterations=2, work_s=0.05,
                                 config=FmiConfig(interval=1, spare_nodes=2)),
                         at=1.0)
    drained = sched.drain()
    sim.run(until=drained, max_events=500_000)
    assert [r.state for r in sched.records] == ["done"] and legal.state == "done"
    assert machine.rm.idle_count == 8


# ------------------------------------------------ refusals outside the queue
def test_fmi_job_refuses_a_too_small_allocation_at_construction():
    _sim, machine = make(8)
    fabric = machine.fabric

    def listeners():
        return [dict(d) for d in (machine.death_listeners,
                                  fabric.partition_listeners,
                                  fabric.heal_listeners)]

    before = listeners()
    alloc = machine.rm.allocate(2)
    with pytest.raises(ValueError, match="allocation has 2 compute nodes, "
                                         "job needs 4"):
        FmiJob(machine, idle_app, num_ranks=8, procs_per_node=2,
               config=FmiConfig(interval=1, xor_group_size=4), alloc=alloc)
    # The allocation is its owner's: the refusal neither used nor
    # released it, and the refused job subscribed to nothing.
    assert len(alloc.nodes) == 2 and machine.rm.idle_count == 6
    assert listeners() == before


def test_mpi_entry_points_refuse_bad_geometry_at_construction():
    _sim, machine = make(8)
    with pytest.raises(ValueError, match="multiple of procs_per_node"):
        MpiRestartDriver(machine, idle_app, 5, 2)
    with pytest.raises(ValueError, match="multiple of procs_per_node"):
        MpiJob(machine, idle_app, 5, 2)
    assert machine.rm.idle_count == 8


# ---------------------------------------- the lattice under one seeded kill
def unrecoverable_by_design(config) -> bool:
    """The one draw whose node kill may end the job: no redundancy and
    no level-2 tier leave a dead node's checkpoint nowhere to rebuild
    from, so the job aborts with ``FmiAbort`` (``UnrecoverableFailure``)."""
    return (config is not None and config.redundancy == "single"
            and config.level2_every is None)


#: launch, bootstrap and checkpoints on top of the ideal runtime: every
#: failure-free draw of the lattice ends by 0.75 s, bootstrapped by ~0.36 s
BOOT_S = 0.6


@settings(max_examples=40 * _SCALE, deadline=None)
@given(
    ranks=st.integers(1, 8),
    ppn=st.sampled_from([1, 2, 4]),
    family=st.sampled_from(["failstop", "global", "logged", "replicated"]),
    redundancy=st.sampled_from(["xor", "partner", "single"]),
    group=st.integers(2, 5),
    spares=st.integers(0, 2),
    degree=st.integers(1, 3),
    level2=st.sampled_from([None, 1]),
    kill_at=st.floats(0.0, 1.0),
    kill_seed=st.integers(0, 2**32 - 1),
)
# A node dying before the job booted, shrunk.  The logged plane's
# survivor absorbed it, skipped the world rendezvous and then ran a
# partial restore whose sidecar spawned on the dead node (NodeDownError)
# or sent to a rank that never registered (KeyError).  Once it booted
# in epoch 1, ``init_done_at`` stayed None (set only in epoch 0).
@example(ranks=2, ppn=1, family="logged", redundancy="xor", group=2,
         spares=0, degree=1, level2=None, kill_at=0.0, kill_seed=0)
# The replicated plane failed over instead: the promoted copy and both
# cohorts met in one rendezvous ("rendezvous overfull: 3 > size 2").
@example(ranks=2, ppn=1, family="replicated", redundancy="xor", group=2,
         spares=1, degree=2, level2=None, kill_at=0.0, kill_seed=0)
# A node dying in the job's closing finalize barrier: two ranks of the
# other node completed it on messages already on the wire and finished
# in the new epoch, never notified, while the respawned ranks waited
# for them in the restore agreement (the simulation ran dry).
@example(ranks=4, ppn=2, family="global", redundancy="xor", group=2,
         spares=1, degree=1, level2=None, kill_at=0.788163, kill_seed=0)
def test_lattice_draw_is_refused_or_runs_bitwise(
    ranks, ppn, family, redundancy, group, spares, degree, level2,
    kill_at, kill_seed,
):
    """Every draw is refused at construction, or ends ``done`` with the
    bitwise failure-free answer and no trace-invariant violation, after
    a machine engine crashed one random node at a time drawn inside the
    tenant's lifetime (ideal runtime plus ``BOOT_S``).  The one
    exception: an :func:`unrecoverable_by_design` draw may end
    ``failed`` with that abort.  Anything else -- a hang, a leaked
    node, a wrong answer -- is a bug."""
    try:
        config = None if family == "failstop" else FmiConfig(
            interval=1, recovery=family, redundancy=redundancy,
            xor_group_size=group, spare_nodes=spares,
            replication_degree=degree, level2_every=level2,
        )
        spec = JobSpec(name="draw", ranks=ranks, ppn=ppn, config=config,
                       iterations=3, work_s=0.05)
    except ValueError:
        return  # refused at construction: the other legal outcome
    sim, machine = make(spec.total_nodes + 1)
    invariants = TraceInvariants()
    invariants.subscribe(Tracer(sim))
    sched = StreamScheduler(machine)
    rec = sched.submit(spec)
    engine = ChaosEngine(machine, RngRegistry(kill_seed).stream("kill"))
    engine.arm(Scenario("kill", [
        Rule(AtTime(kill_at * (spec.ideal_runtime + BOOT_S)), KillRandomNode()),
    ]))
    drained = sched.drain()
    sim.run(until=drained, max_events=200_000)
    engine.disarm()
    assert drained.triggered, "the stream never drained"
    if rec.state == "failed" and unrecoverable_by_design(config):
        assert isinstance(rec.failure, FmiAbort), rec.failure
        assert "UnrecoverableFailure" in str(rec.failure), rec.failure
    else:
        assert rec.state == "done", (rec.state, rec.failure, engine.injected)
        # init ends at the first completed bootstrap, even one that a
        # failure before boot pushed past epoch 0
        assert config is None or rec.job.init_done_at is not None
        assert all(
            np.array_equal(got, want)
            for got, want in zip(rec.result, spec.expected_results())
        )
    assert invariants.violations() == []
    sched.shutdown()
    assert machine.rm.idle_count == len(machine.live_nodes)


#: the finalize window of the lattice's 4-rank, ppn-2 ``global`` draw
#: (its ideal runtime plus ``BOOT_S`` is 0.75 s): from the end of its
#: last checkpoint to the job's finish, in simulated seconds
FINALIZE_WINDOW = (0.5911207711, 0.5911243)


@pytest.mark.parametrize("kill_seed", range(6))
@pytest.mark.parametrize("step", range(8))
def test_a_kill_in_the_finalize_window_is_recovered(step, kill_seed):
    """Eight instants across the window, each under six kill seeds (some
    pick the spare node): every one runs to the bitwise answer."""
    lo, hi = FINALIZE_WINDOW
    at = lo + (hi - lo) * step / 7
    test_lattice_draw_is_refused_or_runs_bitwise.hypothesis.inner_test(
        ranks=4, ppn=2, family="global", redundancy="xor", group=2,
        spares=1, degree=1, level2=None, kill_at=at / 0.75,
        kill_seed=kill_seed)
