"""The recovery-family seam: one object per job, one transport hook.

* the family contract, parametrised over global / logged / replicated
  (and a do-nothing subclass of the base family, which must be
  indistinguishable from global rollback);
* the single receive-side hook ``NetContext.recv_filter`` driven
  through both transport delivery paths with each plane's filter;
* the shared channel layer: the :class:`~repro.fmi.channel.ChannelState`
  record and the one determinant rule both planes follow;
* the guard that a ``recovery="global"`` run never enters either plane
  or the channel layer under them.
"""

import cProfile
import pstats
from types import SimpleNamespace

import numpy as np
import pytest

import repro.fmi.job as fmi_job
from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.channel import ChannelState
from repro.fmi.config import RECOVERY_MODES
from repro.fmi.checkpoint import CheckpointEngine
from repro.fmi.msglog import RecoveryPlane
from repro.fmi.replication import ReplicationPlane, _StandbyRec
from repro.fmi.runtime import RecoveryFamily
from repro.net.matching import ANY_SOURCE
from repro.net.message import Envelope
from repro.net.transport import Transport
from repro.obs import Tracer
from repro.obs.export import dumps_jsonl
from repro.simt import Simulator
from repro.simt.rng import RngRegistry
from tests.collective_engine import verdict

ITERS = 6


def run_bsp(recovery, kill=True, trace=False, num_ranks=8, ppn=2):
    """One seeded kill schedule for every family: node 1 dies at 1.6 s."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    tracer = Tracer(sim) if trace else None
    job = FmiJob(
        machine, bsp_app(ITERS, work_s=0.25), num_ranks=num_ranks,
        procs_per_node=ppn,
        config=FmiConfig(interval=1, xor_group_size=4, recovery=recovery,
                         spare_nodes=2),
    )
    done = job.launch()
    if kill:
        def killer():
            yield sim.timeout(1.6)
            machine.node(1).crash("injected")
        sim.spawn(killer())
    results = sim.run(until=done)
    return job, tracer, results


# ------------------------------------------------------------ family contract
class _DoNothing(RecoveryFamily):
    """Overrides nothing: must behave exactly as global rollback."""


@pytest.mark.parametrize("recovery, cls, reason", [
    ("global", RecoveryFamily, None),
    ("logged", RecoveryPlane, "msglog"),
    ("replicated", ReplicationPlane, "replicated"),
])
def test_family_contract(recovery, cls, reason):
    _job, _tracer, clean = run_bsp(recovery, kill=False)
    job, tracer, killed = run_bsp(recovery, trace=True)
    assert type(job.recovery) is cls
    assert job.epoch == 1
    # Bitwise the failure-free answer, whichever way the job came back.
    assert len(clean) == len(killed) == 8
    for rank, (c, k) in enumerate(zip(clean, killed)):
        assert np.array_equal(c, expected_bsp_state(rank, 8, ITERS))
        assert np.array_equal(k, c)
    # The family alone decides whether hops are load-bearing.
    assert verdict(job.transport, job.recovery) == reason
    # Trace replay is byte-identical run to run.
    _job2, tracer2, _killed2 = run_bsp(recovery, trace=True)
    trace = dumps_jsonl(tracer.events)
    assert trace and trace == dumps_jsonl(tracer2.events)


def test_every_recovery_mode_has_exactly_one_family():
    assert set(fmi_job._FAMILIES) == set(RECOVERY_MODES)


def test_do_nothing_family_is_global_rollback(monkeypatch):
    """Callers reach the family only through the seam: a subclass that
    overrides nothing is byte-for-byte global rollback."""
    ref_job, ref_tracer, ref_results = run_bsp("global", trace=True)
    assert type(ref_job.recovery) is RecoveryFamily
    monkeypatch.setitem(fmi_job._FAMILIES, "global", _DoNothing)
    job, tracer, results = run_bsp("global", trace=True)
    assert type(job.recovery) is _DoNothing
    for got, ref in zip(results, ref_results):
        assert np.array_equal(got, ref)
    assert job.restores_done == ref_job.restores_done == 8
    assert dumps_jsonl(tracer.events) == dumps_jsonl(ref_tracer.events)


# --------------------------------------------------- the one transport hook
def _logged_plane(sim):
    job = SimpleNamespace(sim=sim, num_ranks=2)
    return RecoveryPlane(job)


def _replicated_plane(sim):
    job = SimpleNamespace(
        sim=sim, rank_procs={},
        config=FmiConfig(recovery="replicated", spare_nodes=1),
    )
    return ReplicationPlane(job)


def _logged_filter(sim):
    plane = _logged_plane(sim)
    return plane, plane._make_recv_filter(plane.channels[1]), None


def _replicated_filter(sim):
    plane = _replicated_plane(sim)
    key = object()  # stands in for the receiving context
    chan = plane.channels[key] = ChannelState()
    return plane, plane._make_recv_filter(chan), key


@pytest.mark.parametrize("traced", [False, True],
                         ids=["on_arrival_fast", "_arrive"])
@pytest.mark.parametrize("make_filter", [_logged_filter, _replicated_filter],
                         ids=["logged", "replicated"])
def test_recv_filter_through_both_delivery_paths(make_filter, traced):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(2), RngRegistry(0))
    tracer = Tracer(sim) if traced else None
    transport = Transport(machine)
    src = transport.create_context(machine.node(0))
    dst = transport.create_context(machine.node(1))
    plane, dst.recv_filter, standby_key = make_filter(sim)

    def send(lseq):
        env = Envelope(src=0, dst=1, tag=0, comm_id=0, epoch=0, nbytes=8.0,
                       data=1.0)
        env.lseq = lseq
        sim.run(until=transport.send(src, dst.addr, env))
        return env

    # Exact-once per lseq: the duplicate is suppressed, the next
    # message on the channel gets through.
    send((0, 1, 0))
    send((0, 1, 0))
    send((0, 1, 1))
    assert dst.matching.delivered == 2
    assert transport.lseq_dup_dropped == 1  # the filter's one refusal
    # Unstamped traffic never reaches the filter.
    dst.recv_filter = lambda env: pytest.fail("filter saw unstamped env")
    send(None)
    assert dst.matching.delivered == 3
    if traced:
        outcomes = [ev.name for ev in tracer.events
                    if ev.name.startswith(("net.recv", "net.drop"))]
        assert outcomes == ["net.recv", "net.drop_lseq_dup", "net.recv",
                            "net.recv"]
    if standby_key is not None:
        # An unsynced standby parks stamped envelopes instead.
        rec = plane.standby_recs[standby_key] = _StandbyRec(1, 1, sim)
        dst.recv_filter = rec.park
        parked = send((0, 1, 2))
        assert rec.buffered == [parked]
        assert dst.matching.delivered == 3
        assert transport.lseq_dup_dropped == 2


# --------------------------------------------------------- the shared record
def test_channel_state_snapshot_window_follows_checkpoint_retention():
    chan, window = ChannelState(), {}
    for ds in range(5):
        chan.send_seq[7] = ds
        chan.snapshot(window, ds, det_len=ds)
    assert len(window) == CheckpointEngine.KEEP == 2
    assert sorted(window) == [3, 4]
    # A re-executed older checkpoint never evicts a newer one.
    chan.snapshot(window, 2, det_len=0)
    assert sorted(window) == [3, 4]
    # Snapshots are copies, not views.
    chan.send_seq[7] = 99
    assert window[4].send_seq == {7: 4}


def test_channel_state_load_rebases_seen_onto_consumed():
    chan, window = ChannelState(), {}
    chan.send_seq[2] = 3
    chan.consumed.add((0, 0))
    chan.seen.update({(0, 0), (0, 1)})  # (0, 1) delivered, not consumed
    chan.snapshot(window, 0, det_len=5)
    chan.send_seq[2] = 9
    chan.consumed.add((0, 1))
    chan.load(window[0])
    assert chan.send_seq == {2: 3}
    assert chan.consumed == chan.seen == {(0, 0)}
    assert chan.det_cursor == 5
    chan.consumed.add((4, 4))
    assert window[0].consumed == {(0, 0)}  # loading copies too
    chan.load(None)
    assert (chan.send_seq, chan.consumed, chan.seen, chan.det_cursor) == (
        {}, set(), set(), 0)


class _Ctx:
    """A context stand-in (hashable: the replicated plane keys channels
    by context) whose matching engine is ``matching``."""

    def __init__(self, matching=None):
        self.matching = matching


def _logged_rule(sim, posted):
    """Rank 1 records its own matches and replays them."""
    plane = _logged_plane(sim)
    chan = plane.channels[1]
    fproc = SimpleNamespace(rank=1)
    api = SimpleNamespace(rank=1, fproc=fproc, ctx=_Ctx(posted))
    return plane, 1, plane._make_sink(fproc, chan), chan, api


def _replicated_rule(sim, posted):
    """Rank 0's lead records; its follower replays."""
    plane = _replicated_plane(sim)
    lead = SimpleNamespace(rank=0, ctx=_Ctx())
    follower = SimpleNamespace(rank=0, ctx=_Ctx(posted))
    plane.job.rank_procs[0] = lead
    sink = plane._make_sink(lead, plane.channels.setdefault(
        lead.ctx, ChannelState()))
    chan = plane.channels[follower.ctx] = ChannelState()
    api = SimpleNamespace(rank=0, fproc=follower, ctx=follower.ctx)
    return plane, 0, sink, chan, api


@pytest.mark.parametrize("make", [_logged_rule, _replicated_rule],
                         ids=["logged", "replicated"])
def test_both_planes_follow_one_determinant_rule(make):
    """Behind the record's end a channel replays it in order; at the
    end a logged post goes native and a replicated follower parks."""
    sim = Simulator()
    tracer = Tracer(sim)
    posts = []
    posted = SimpleNamespace(
        post=lambda src, tag, comm: posts.append((src, tag, comm)) or
        sim.event())
    plane, rank, sink, chan, api = make(sim, posted)
    srcs = [3, 2, 5, 1]
    for n, src in enumerate(srcs):
        env = Envelope(src=src, dst=rank, tag=7, comm_id=0, epoch=0,
                       nbytes=8.0, data=None)
        env.lseq = (src, rank, n)
        sink(ANY_SOURCE, 7, env)
    assert len(plane.dets[rank]) == 4
    chan.det_cursor = 1
    for _ in srcs[1:]:
        assert plane.post_wildcard(api, ANY_SOURCE, 7, 0) is not None
    assert posts == [(src, 7, 0) for src in srcs[1:]]
    assert chan.det_cursor == 4
    last = plane.post_wildcard(api, ANY_SOURCE, 7, 0)
    if make is _logged_rule:
        assert last is None
    else:
        assert not last.triggered
        assert plane.parked[rank] == [(api.ctx, ANY_SOURCE, 7, 0, last)]
    assert len(posts) == 3
    assert not [ev for ev in tracer.events if ev.name.endswith(".det.mismatch")]


# ------------------------------------------------------- global bypass guard
def test_global_run_enters_neither_plane_module():
    """The in-tree mirror of the benchmark's ``fmi.msglog.calls_m == 0``
    on the global-rollback workloads: a killed ``recovery="global"`` job
    executes no function defined in ``fmi/msglog.py``,
    ``fmi/replication.py`` or the ``fmi/channel.py`` layer under them."""
    profile = cProfile.Profile()
    profile.enable()
    job, _tracer, results = run_bsp("global", num_ranks=4, ppn=1)
    profile.disable()
    assert job.epoch == 1 and len(results) == 4
    files = {func[0] for func in pstats.Stats(profile).stats}
    assert any(f.endswith("fmi/runtime.py") for f in files)
    entered = sorted(
        f for f in files
        if f.endswith(("fmi/msglog.py", "fmi/replication.py",
                       "fmi/channel.py"))
    )
    assert entered == []
