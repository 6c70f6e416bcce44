"""The replication recovery plane: unit + end-to-end coverage.

Unit tests drive :class:`~repro.fmi.replication.ReplicationPlane`
against a stub job (lseq stamping, the mirror fan-out of ``on_send``,
payload-snapshotting mirrors, the exact-once receive filter).  The
end-to-end tests run a killed BSP job under ``recovery="replicated"``
and require it to land bit-identical on the failure-free answer
*without any rank ever opening a checkpoint restore* -- failover, not
rollback -- plus the graceful fall-back when both copies of one
virtual rank die, and a second kill in the recovery's respawn window.
"""

import gc
import math
import sys
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.chaos.invariants import TraceInvariants
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.replication import ReplicationPlane
from repro.fmi.runtime import FmiProcess
from repro.models.efficiency import (
    replication_efficiency,
    replication_vs_cr_crossover,
    single_level_efficiency,
)
from repro.net.matching import MatchingEngine
from repro.net.message import Envelope
from repro.net.transport import Transport
from repro.obs import Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


# ------------------------------------------------------------ unit fixtures
class _StubNode:
    alive = True


class _StubCtx:
    """The context surface the plane's data path touches."""

    def __init__(self, addr):
        self.addr = addr
        self.closed = False
        self.node = _StubNode()
        self.epoch = 0
        self.matching = MatchingEngine(Simulator())

    def close(self):
        self.closed = True


class _StubTransport:
    """Records every send the plane makes: ``(src ctx, dst addr, env)``."""

    def __init__(self):
        self.sent = []

    def send(self, src, dst_addr, env):
        self.sent.append((src, dst_addr, env))


class _StubJob:
    def __init__(self, degree=2):
        self.sim = Simulator()
        self.transport = _StubTransport()
        self.config = FmiConfig(recovery="replicated",
                                replication_degree=degree,
                                spare_nodes=degree - 1)
        self.num_ranks = 4
        self.epoch = 0
        self.rank_procs = {}
        self.addr_table = {}

    def register_endpoint(self, rank, ctx):
        self.addr_table[rank] = ctx.addr


def _env(src=0, dst=1, tag=0, nbytes=8.0, data=1.0):
    return Envelope(src=src, dst=dst, tag=tag, comm_id=0, epoch=0,
                    nbytes=nbytes, data=data)


def make_plane(degree=2):
    job = _StubJob(degree)
    return job, ReplicationPlane(job)


def boot(plane, rank, copy, addr, ctx=None):
    """Adopt one copy, spawned by a task that has not failed, and take
    it through ``on_h1``, as the runtime does; returns its wired
    context (a stub at ``addr`` unless ``ctx`` is given)."""
    fproc = SimpleNamespace(rank=rank, copy=copy,
                            ctx=_StubCtx(addr) if ctx is None else ctx,
                            task=SimpleNamespace(failed=False))
    plane.adopt(fproc)
    plane.on_h1(fproc)
    return fproc.ctx


# ------------------------------------------------------------- lseq stamping
def test_on_send_stamps_per_context_sequences():
    job, plane = make_plane(degree=3)
    lead = boot(plane, 0, 0, (0, 0))
    follower = boot(plane, 0, 1, (1, 0))
    assert job.addr_table == {0: lead.addr}  # only the lead is published
    assert plane.mirrors == {0: [follower]}
    # Rank 1 runs three copies, one of them on a dead node; rank 2 one.
    boot(plane, 1, 0, (2, 0))
    replicas = [boot(plane, 1, 1, (3, 0)), boot(plane, 1, 2, (4, 0))]
    boot(plane, 2, 0, (5, 0))
    replicas[1].node = _StubNode()
    replicas[1].node.alive = False
    sent = job.transport.sent
    # Copies of one rank run the same channel schedule, so the two
    # contexts must produce *identical* lseq streams independently.
    for ctx in (lead, follower):
        envs = [_env(src=0, dst=1) for _ in range(3)] + [_env(src=0, dst=2)]
        for e in envs[:3]:
            mark = len(sent)
            plane.on_send(0, 1, e, ctx=ctx)
            # A lead-bound send: one clone per live replica, from this
            # copy, on the wire before on_send returns.
            assert [(src, addr, m.lseq) for src, addr, m in sent[mark:]] \
                == [(ctx, replicas[0].addr, e.lseq)]
        mark = len(sent)
        plane.on_send(0, 2, envs[3], ctx=ctx)
        assert sent[mark:] == []  # no replica, no clone
        assert [e.lseq for e in envs] == [(0, 1, 0), (0, 1, 1), (0, 1, 2),
                                          (0, 2, 0)]
    assert len(sent) == 6  # the stub transport saw every clone


def test_transport_send_mirrors_nothing():
    """The fan-out is ``on_send``'s: an lseq-stamped envelope handed
    straight to ``Transport.send`` reaches its one destination."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(3), RngRegistry(0))
    job = _StubJob()
    job.sim = sim
    job.transport = transport = Transport(machine)
    plane = ReplicationPlane(job)
    lead, follower = (
        boot(plane, 0, copy, None, transport.create_context(machine.node(n)))
        for copy, n in ((0, 1), (1, 2))
    )
    assert plane.mirrors == {0: [follower]}
    env = _env(src=1, dst=0)
    env.lseq = (1, 0, 0)
    src = transport.create_context(machine.node(0))
    sim.run(until=transport.send(src, lead.addr, env))
    sim.run()
    assert lead.matching.delivered == 1
    assert follower.matching.delivered == 0


# ------------------------------------------------------------------ mirrors
def test_mirror_copies_snapshots_payloads():
    _job, plane = make_plane()
    replica = _StubCtx((1, 0))
    plane.mirrors[0] = [replica]
    payload = np.arange(4, dtype=np.float64)
    env = _env(data=payload)
    env.lseq = (0, 1, 7)
    out = plane.mirror_copies(0, env)
    assert len(out) == 1
    addr, menv = out[0]
    assert addr == replica.addr
    assert menv.lseq == env.lseq  # dedup identity is shared...
    assert np.array_equal(menv.data, payload)
    assert menv.data is not payload  # ...but the buffer is not


def test_mirror_copies_skips_dead_and_closed_replicas():
    _job, plane = make_plane()
    closed, dead = _StubCtx((1, 0)), _StubCtx((2, 0))
    closed.closed = True
    dead.node = _StubNode()
    dead.node.alive = False
    plane.mirrors[0] = [closed, dead]
    assert plane.mirror_copies(0, _env()) == []
    assert plane.mirror_copies(9, _env()) == ()  # no mirror entry


# ------------------------------------------------------------ standby sync
def test_standby_parks_until_synced_then_loads_the_lead_snapshot():
    """The keep-2 lead snapshots are a standby's seed: ``load`` rebases
    its delivered set onto what the snapshot consumed."""
    job, plane = make_plane()
    lead = boot(plane, 0, 0, (0, 0))
    lead_proc = job.rank_procs[0]
    for n in range(3):
        env = _env(src=1, dst=0)
        env.lseq = (1, 0, n)
        assert lead.recv_filter(env)
        lead.matching.match_sink(1, 0, env)
        plane.note_rank_checkpoint(0, n, lead)
    assert sorted(plane.snapshots[0]) == [1, 2]  # CheckpointEngine.KEEP
    assert lead_proc.ctx is lead
    # A follower's checkpoint is local redundancy only: no snapshot.
    follower = boot(plane, 0, 1, (1, 0))
    plane.note_rank_checkpoint(0, 9, follower)
    assert 9 not in plane.snapshots[0]
    # An unsynced standby parks every stamped envelope...
    plane.standby_expected.add((0, 1))
    standby = boot(plane, 0, 1, (2, 0))
    parked = _env(src=1, dst=0)
    parked.lseq = (1, 0, 1)
    assert standby.recv_filter(parked) is False
    assert plane.standby_recs[standby].buffered == [parked]
    # ...and syncing loads the snapshot: consumed lseqs are duplicates
    # to the exact-once filter the sync swaps in.
    chan = plane.channels[standby]
    chan.load(plane.snapshots[0][1])
    standby.recv_filter = plane._make_recv_filter(chan)
    assert chan.seen == chan.consumed == {(1, 0), (1, 1)}
    assert standby.recv_filter(parked) is False  # a duplicate now


def test_fallback_puts_a_parking_standby_back_on_the_exact_once_filter():
    """A fallback retires the standby protocol: a context that was
    parking must filter exact-once again, not buffer for a sync that
    will never come."""
    job, plane = make_plane()
    boot(plane, 0, 0, (0, 0))
    plane.standby_expected.add((0, 1))
    standby = boot(plane, 0, 1, (1, 0))
    rec = plane.standby_recs[standby]
    parked = _env(src=1, dst=0)
    parked.lseq = (1, 0, 0)
    assert standby.recv_filter(parked) is False
    assert rec.buffered == [parked]
    # no slot to elect and no process to poke: the filter is the test
    job.num_nodes = 0
    job.fmirun = SimpleNamespace(processes=list)
    plane._fallback("test")
    assert plane.standby_recs == {}
    env = _env(src=1, dst=0)
    env.lseq = (1, 0, 0)
    assert standby.recv_filter(env) is True
    assert standby.recv_filter(env) is False


# ------------------------------------------------------ config and guards
def test_replicated_config_validation():
    FmiConfig(recovery="replicated", spare_nodes=1)  # valid
    with pytest.raises(ValueError, match="replication_degree must be >= 1"):
        FmiConfig(recovery="replicated", replication_degree=0, spare_nodes=2)
    with pytest.raises(ValueError, match="multilevel"):
        FmiConfig(recovery="replicated", level2_every=2, spare_nodes=1)
    with pytest.raises(ValueError, match="spare_nodes"):
        FmiConfig(recovery="replicated", replication_degree=3, spare_nodes=1)


# ------------------------------------------------------------ model layer
def test_replication_efficiency_degenerates_to_plain_cr_at_degree_one():
    e1 = replication_efficiency(1, mtbf=1e5, n_nodes=100)
    assert e1 == single_level_efficiency(10.0, 1e5 / 100, 10.0)


def test_replication_wins_on_failure_dense_machines_only():
    # Reliable machine: C/R approaches 1, replication can never beat 1/2.
    assert (replication_efficiency(2, mtbf=1e8, n_nodes=100)
            < single_level_efficiency(10.0, 1e8 / 100, 10.0))
    # Failure-dense machine: C/R's renewal term collapses first.
    assert (replication_efficiency(2, mtbf=2e4, n_nodes=10_000)
            > single_level_efficiency(10.0, 2e4 / 10_000, 10.0))


def test_replication_model_validation():
    with pytest.raises(ValueError, match="degree"):
        replication_efficiency(0, mtbf=1e5, n_nodes=10)
    with pytest.raises(ValueError, match="mtbf"):
        replication_efficiency(2, mtbf=0.0, n_nodes=10)
    with pytest.raises(ValueError, match="rearm_window"):
        replication_efficiency(2, mtbf=1e5, n_nodes=10, rearm_window=0.0)
    with pytest.raises(ValueError, match="finite"):
        replication_efficiency(2, mtbf=math.nan, n_nodes=10)
    with pytest.raises(ValueError, match="finite"):
        replication_efficiency(2, mtbf=math.inf, n_nodes=10)


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(min_value=1, max_value=4),
    mtbf=st.floats(min_value=1e-3, max_value=1e12),
    n_nodes=st.integers(min_value=1, max_value=10**6),
)
def test_replication_efficiency_is_a_proper_fraction(degree, mtbf, n_nodes):
    e = replication_efficiency(degree, mtbf, n_nodes)
    assert 0.0 <= e <= 1.0
    assert math.isfinite(e)


def test_crossover_mtbf_grows_with_job_size():
    xs = [replication_vs_cr_crossover(n) for n in (50, 1000, 100_000)]
    assert xs == sorted(xs)
    assert all(x > 0 for x in xs)


def test_crossover_rejects_jobs_too_small_to_cross():
    with pytest.raises(ValueError, match="no replication-vs-C/R crossover"):
        replication_vs_cr_crossover(10)


# --------------------------------------------------------------- end to end
ITERS = 6


def run_bsp(recovery, kills=(), seed=0, trace=False):
    """``kills`` is a list of (node_id, time) crashes.  The replicated
    geometry doubles the rank tier: 4 virtual slots live on nodes 0-3
    (copy 0) and 4-7 (copy 1), with spares behind them."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(seed))
    tracer = Tracer(sim) if trace else None
    job = FmiJob(
        machine, bsp_app(ITERS, work_s=0.25), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, recovery=recovery,
                         spare_nodes=2),
    )
    done = job.launch()
    for node, t in kills:
        def killer(node=node, t=t):
            yield sim.timeout(t)
            machine.node(node).crash("injected")
        sim.spawn(killer())
    results = sim.run(until=done)
    return job, tracer, results


def _assert_failure_free_answer(results):
    assert len(results) == 8
    for rank, u in enumerate(results):
        assert np.array_equal(u, expected_bsp_state(rank, 8, ITERS))


def test_replicated_matches_global_and_failure_free_bitwise():
    _j0, _t, clean = run_bsp("replicated")
    _j1, _t, failover = run_bsp("replicated", kills=[(1, 1.6)])
    _j2, _t, global_ = run_bsp("global", kills=[(1, 1.6)])
    for results in (clean, failover, global_):
        _assert_failure_free_answer(results)


def test_failover_never_touches_checkpoint_restore():
    job, tracer, results = run_bsp("replicated", kills=[(1, 1.6)], trace=True)
    _assert_failure_free_answer(results)
    names = [ev.name for ev in tracer.events]
    # Node 1 hosted the copy-0 leads of ranks 2 and 3: both promote in
    # place, nobody restores, and fresh replicas register to re-arm
    # from the lead's channel snapshot -- not from stable storage.
    assert names.count("ckpt.restore.begin") == 0
    assert names.count("repl.promote") == 2
    assert names.count("repl.standby.register") == 2
    assert names.count("repl.fallback") == 0
    assert job.restores_done == 0
    # The untouched slot's replicas took in their leads' traffic as
    # mirror clones: their channels delivered it.
    plane = job.recovery
    assert all(plane.channels[plane.copies[r][1].ctx].seen for r in (0, 1))
    assert _violations(tracer) == []
    # The paper's headline: failover beats the logged plane's measured
    # 0.455 s recovery by construction.
    latency = job.recovery_latency(1)
    assert latency is not None and latency < 0.455


def _violations(tracer):
    """The trace invariants' verdict on ``tracer``'s events, replayed."""
    return TraceInvariants().replay(tracer.events).violations()


def _hand_built_trace(*records):
    """A tracer holding ``(ts, name, cat)`` instants, in that order."""
    sim = Simulator()
    tracer = Tracer(sim)
    for ts, name, cat in records:
        sim.now = ts
        tracer.instant(name, cat, rank=0)
    return tracer


def test_zero_rollback_is_checked_only_where_replication_ran():
    # A restore before the first fallback is a rollback of a survivor.
    tracer = _hand_built_trace(
        (1.0, "repl.promote", "repl"),
        (2.0, "ckpt.restore.begin", "ckpt"),
        (3.0, "repl.fallback", "repl"),
        (4.0, "ckpt.restore.begin", "ckpt"),
    )
    violations = _violations(tracer)
    assert [v.invariant for v in violations] == ["zero-rollback"]
    assert "t=2" in violations[0].detail and "fallback at t=3" in violations[0].detail
    # No repl event at all: another family, whose restores are its job.
    tracer = _hand_built_trace(
        (1.0, "mlog.det.mismatch", "mlog"),
        (2.0, "ckpt.restore.begin", "ckpt"),
    )
    assert _violations(tracer) == []


def test_early_kill_rearms_replicas_from_the_lead_snapshot():
    # An early kill leaves time for the full re-arm cycle: the fresh
    # copies sync from the promoted lead's in-memory channel snapshot.
    # ``restores_done`` counts those state *transfers* -- the stable
    # storage restore path (``ckpt.restore.begin``) still never runs.
    job, tracer, results = run_bsp("replicated", kills=[(0, 1.0)], trace=True)
    _assert_failure_free_answer(results)
    names = [ev.name for ev in tracer.events]
    assert names.count("ckpt.restore.begin") == 0
    assert names.count("repl.standby.sync") == 2
    assert names.count("repl.promote") == 2
    assert names.count("repl.fallback") == 0
    assert _violations(tracer) == []


def test_replica_tier_kill_rearms_without_promotion():
    # Node 5 hosts copy-1 *replicas*: survivors never see an unwind and
    # no promotion happens -- just a background re-arm.
    job, tracer, results = run_bsp("replicated", kills=[(5, 1.6)], trace=True)
    _assert_failure_free_answer(results)
    names = [ev.name for ev in tracer.events]
    assert names.count("repl.promote") == 0
    assert names.count("repl.fallback") == 0
    assert names.count("repl.replica_lost") >= 1
    assert job.restores_done == 0
    assert names.count("ckpt.restore.begin") == 0
    assert names.count("repl.standby.register") == 2
    assert _violations(tracer) == []


def test_a_replaced_copy_leaves_no_channel_or_endpoint_behind():
    # Ten node kills, each taking one copy of one rank: every
    # replacement adopts the dead copy's slot, and the plane's channel
    # table and the transport's endpoint registry keep one entry per
    # live copy instead of one per incarnation ever booted.
    iters = 60
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    job = FmiJob(
        machine, bsp_app(iters, work_s=0.5), num_ranks=4, procs_per_node=1,
        config=FmiConfig(interval=1, xor_group_size=4, recovery="replicated",
                         spare_nodes=2),
    )
    done = job.launch()
    plane = job.recovery
    sizes = []

    def killer():
        for i in range(10):
            yield sim.timeout(2.9)
            sizes.append((len(plane.channels), len(job.transport._registry)))
            cps = plane.copies[i % 4]
            cps[i % 2 if i % 2 in cps else min(cps)].node.crash("injected")

    sim.spawn(killer())
    results = sim.run(until=done)
    sizes.append((len(plane.channels), len(job.transport._registry)))
    assert sizes == [(8, 8)] * 11
    for rank, u in enumerate(results):
        assert np.array_equal(u, expected_bsp_state(rank, 4, iters))


def _reachable(root, cls):
    """The instances of ``cls`` that references from ``root`` reach,
    through neither a module's globals nor a class: those reach every
    object the interpreter holds, other tests' jobs too."""
    seen = {id(vars(m)) for m in list(sys.modules.values()) if m}
    seen.add(id(root))
    stack, found = [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, cls):
            found.append(obj)
        if isinstance(obj, (type, ModuleType)):
            continue
        for ref in gc.get_referents(obj):
            if id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return found


def test_the_transport_keeps_no_dead_copy_reachable():
    # ``Transport.contexts`` keeps every context ever created, a
    # replaced copy's too.  Closing one drops its receive filter and
    # match sink, closures over the copy's process, so eight lead
    # kills leave no dead incarnation reachable from the transport.
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(24), RngRegistry(0))
    job = FmiJob(
        machine, bsp_app(40, work_s=0.4), num_ranks=4, procs_per_node=1,
        config=FmiConfig(interval=1, xor_group_size=4, recovery="replicated",
                         spare_nodes=2),
    )
    done = job.launch()
    reached = []

    def killer():
        for i in range(8):
            yield sim.timeout(1.5)
            job.rank_procs[i % 4].node.crash("injected")
        yield sim.timeout(1.5)
        reached.extend((p.rank, p.copy, p.alive)
                       for p in _reachable(job.transport, FmiProcess))

    sim.spawn(killer())
    results = sim.run(until=done)
    assert sum(ctx.closed for ctx in job.transport.contexts) >= 8
    # one live process per copy of each rank, and nothing else
    assert sorted(reached) == [(r, c, True) for r in range(4) for c in (0, 1)]
    for rank, u in enumerate(results):
        assert np.array_equal(u, expected_bsp_state(rank, 4, 40))


def test_a_replaced_standby_leaves_no_record_to_fall_back_over():
    # A re-arming standby dies before it syncs and its replacement
    # re-arms in turn: the dead copy's record goes with its channel
    # state, so the fallback that the lead's death then forces walks
    # the live standby's record alone.
    iters = 30
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(16), RngRegistry(0))
    job = FmiJob(
        machine, bsp_app(iters, work_s=0.3), num_ranks=4, procs_per_node=1,
        config=FmiConfig(interval=1, xor_group_size=4, recovery="replicated",
                         spare_nodes=3),
    )
    done = job.launch()
    plane = job.recovery
    waiting = []

    def killer():
        yield sim.timeout(1.0)
        plane.copies[0][0].node.crash("injected")
        yield sim.timeout(0.3)
        (rec,) = plane.standby_recs.values()
        plane.copies[rec.rank][rec.copy].node.crash("injected")
        yield sim.timeout(0.2)
        waiting.append((list(plane.standby_recs), plane.copies[0][0].ctx))
        job.rank_procs[0].node.crash("injected")

    sim.spawn(killer())
    results = sim.run(until=done)
    (recs, replacement), = waiting
    assert recs == [replacement]
    for rank, u in enumerate(results):
        assert np.array_equal(u, expected_bsp_state(rank, 4, iters))


def test_kill_both_copies_falls_back_to_coordinated_restore():
    # Nodes 1 and 5 are the two copies of virtual slot 1.  With a gap
    # larger than the re-arm window's start but before the sync
    # completes, no synced copy of ranks 2/3 remains: the plane must
    # fall back to the global restore -- gracefully, not wrongly.
    job, tracer, results = run_bsp(
        "replicated", kills=[(1, 1.6), (5, 1.65)], trace=True)
    _assert_failure_free_answer(results)
    names = [ev.name for ev in tracer.events]
    assert names.count("repl.fallback") == 1
    assert names.count("ckpt.restore.begin") > 0
    # Every restore happened *after* the fallback opened.
    assert _violations(tracer) == []


def test_a_kill_in_the_respawn_window_opens_its_own_epoch():
    # The second kill, of the other copy of the same slot, lands
    # exactly one proc_spawn_latency (0.02 s) after the first: the
    # recovery wakes from its spawn timeout in the instant the second
    # guard's exit is queued behind it.  The recovery respawns only
    # what a task reported, so that exit opens its own epoch and falls
    # back, and the job ends on the failure-free answer.
    job, _tracer, results = run_bsp(
        "replicated", kills=[(1, 1.6), (5, 1.62)])
    _assert_failure_free_answer(results)
    assert job.epoch == 2  # both deaths opened their own epoch


def test_a_kill_queued_behind_a_failover_opens_its_own_epoch():
    # Both copies of slot 1 die at 1.6 s, the second behind a zero
    # timeout: the first exit has been classified (a failover to the
    # other copy) when the second crash happens.  Folded into the
    # failover's epoch, the second death would go unclassified and the
    # slot would be left with no synced copy: the job would stall.
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    job = FmiJob(
        machine, bsp_app(ITERS, work_s=0.25), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, recovery="replicated",
                         spare_nodes=2),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(1.6)
        machine.node(1).crash("injected")
        yield sim.timeout(0.0)
        machine.node(5).crash("injected")

    sim.spawn(killer())
    _assert_failure_free_answer(sim.run(until=done))
    assert [t for t, _cause in job.recovery_causes] == [1.6, 1.6]


@settings(max_examples=6, deadline=None)
@given(
    kill_time=st.floats(min_value=0.9, max_value=2.4),
    kill_node=st.integers(min_value=0, max_value=7),
)
def test_replicated_answer_is_failure_free_for_any_single_kill(
        kill_time, kill_node):
    # Any single physical-node kill -- lead tier or replica tier, at
    # any point of the run -- must land on the failure-free answer with
    # zero checkpoint restores from stable storage.
    job, tracer, results = run_bsp(
        "replicated", kills=[(kill_node, kill_time)], trace=True)
    _assert_failure_free_answer(results)
    names = [ev.name for ev in tracer.events]
    assert names.count("ckpt.restore.begin") == 0
    assert names.count("repl.fallback") == 0
    assert _violations(tracer) == []


# ------------------------------------------------- fmirun's process list
def _job(recovery, num_ranks=4, ppn=2, iters=20):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(8), RngRegistry(0))
    job = FmiJob(
        machine, bsp_app(iters, 0.25, 1e4), num_ranks=num_ranks,
        procs_per_node=ppn,
        config=FmiConfig(interval=1, xor_group_size=2, recovery=recovery,
                         spare_nodes=1),
    )
    return sim, machine, job


def test_fmirun_lists_every_copy_slot_by_slot():
    sim, machine, job = _job("replicated")
    done = job.launch()
    # slots 0-1 host copy 0 of ranks 0-1 and 2-3, slots 2-3 copy 1
    order = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1)]
    assert [(p.rank, p.copy) for p in job.fmirun.processes()] == order

    def killer():
        yield sim.timeout(1.6)
        machine.node(1).crash("injected")  # the copy-0 leads of ranks 2-3

    sim.spawn(killer())
    sim.run(until=done)
    plane = job.recovery
    assert job.fmirun.processes() == [plane.copies[r][c] for r, c in order]
    assert [p.incarnation for p in job.fmirun.processes()] == [0, 0, 1, 1,
                                                               0, 0, 0, 0]


def test_fmirun_lists_the_current_incarnations_in_rank_order_under_global():
    sim, machine, job = _job("global")
    done = job.launch()
    assert job.fmirun.processes() == [job.rank_procs[r] for r in range(4)]

    def killer():
        yield sim.timeout(1.6)
        machine.node(1).crash("injected")

    sim.spawn(killer())
    sim.run(until=done)
    assert job.fmirun.processes() == [job.rank_procs[r] for r in range(4)]
    assert [p.incarnation for p in job.fmirun.processes()] == [0, 0, 1, 1]


def test_an_aborted_replicated_job_leaves_no_copy_running():
    # An abort kills every process fmirun spawned, the follower copies
    # too: none keeps sending on nodes the job has given back, and the
    # clock stops where a global job's does.
    ends = {}
    for recovery in ("global", "replicated"):
        sim, _machine, job = _job(recovery)
        done = job.launch()

        def aborter(job=job):
            yield sim.timeout(2.0)
            job.abort("test abort")

        sim.spawn(aborter())
        sim.run(until=2.5)
        assert done.triggered and not done.ok
        tasks = job.fmirun.tasks.values()
        assert [p for task in tasks for p in task.children if p.alive] == []
        sim.run()
        ends[recovery] = sim.now
    assert ends["replicated"] == pytest.approx(ends["global"], rel=1e-3)
