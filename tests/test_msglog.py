"""The message-logging recovery plane: unit + end-to-end coverage.

Unit tests drive :class:`~repro.fmi.msglog.RecoveryPlane` against a
stub job (channel sequencing, exact-once filter, GC, rewind).  The
end-to-end tests run the same killed BSP job under ``recovery="logged"``
and ``recovery="global"`` and require both to land bit-identical on the
failure-free answer -- with the logged run's survivors never touching
checkpoint restore.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.himeno import HimenoParams, himeno_fmi_app
from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.chaos.invariants import TraceInvariants
from repro.chaos.scenario import AtTime, ChaosEngine, KillSlot, Rule, Scenario
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.errors import FmiAbort
from repro.fmi.msglog import RecoveryPlane
from repro.fmi.runtime import RecoveryFamily
from repro.net.matching import ANY_SOURCE, ANY_TAG, MatchingEngine
from repro.net.message import Envelope
from repro.obs import Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry
from tests.collective_engine import verdict


# ------------------------------------------------------------ unit fixtures
class _StubJob:
    """The minimal job surface RecoveryPlane reads: slot geometry,
    liveness, and a simulator."""

    def __init__(self, num_ranks=4, ppn=1):
        self.sim = Simulator()
        self.num_ranks = num_ranks
        self.ppn = ppn
        self.results = {}
        self.epoch = 0

    def slot_of_rank(self, rank):
        return rank // self.ppn


def _env(src=0, dst=1, tag=0, nbytes=8.0, data=1.0, comm_id=0):
    return Envelope(src=src, dst=dst, tag=tag, comm_id=comm_id, epoch=0,
                    nbytes=nbytes, data=data)


def make_plane(num_ranks=4, ppn=1):
    job = _StubJob(num_ranks, ppn)
    return job, RecoveryPlane(job)


def hooks(plane, rank):
    """The (recv_filter, match_sink) pair ``on_h1`` installs on
    ``rank``'s context."""
    chan, fproc = plane.channels[rank], SimpleNamespace(rank=rank)
    return plane._make_recv_filter(chan), plane._make_sink(fproc, chan)


# ------------------------------------------------------------- send logging
def test_on_send_stamps_per_channel_sequence():
    _job, plane = make_plane()
    envs = [_env(src=0, dst=1) for _ in range(3)] + [_env(src=0, dst=2)]
    for e in envs[:3]:
        plane.on_send(0, 1, e)
    plane.on_send(0, 2, envs[3])
    assert [e.lseq for e in envs] == [(0, 1, 0), (0, 1, 1), (0, 1, 2),
                                      (0, 2, 0)]


def test_same_slot_sends_are_stamped_but_not_logged():
    _job, plane = make_plane(num_ranks=4, ppn=2)  # slots {0,1} {2,3}
    intra, cross = _env(src=0, dst=1), _env(src=0, dst=2)
    plane.on_send(0, 1, intra)
    plane.on_send(0, 2, cross)
    assert intra.lseq == (0, 1, 0) and cross.lseq == (0, 2, 0)
    assert [(src, e.dst) for src, entries in plane.logs.items()
            for e in entries] == [(0, 2)]


# ------------------------------------------------------- GC and checkpoints
def _gc_records(job):
    return [ev.args for ev in job.sim.tracer.events if ev.name == "mlog.gc"]


def test_gc_waits_for_every_live_rank():
    job, plane = make_plane()
    Tracer(job.sim)
    plane.on_send(0, 1, _env(src=0, dst=1))
    # Only rank 0 has checkpointed: the stable floor is undefined.
    plane.note_rank_checkpoint(0, 0)
    assert len(plane.logs[0]) == 1 and _gc_records(job) == []


def test_gc_drops_entries_behind_the_stable_floor():
    job, plane = make_plane()
    Tracer(job.sim)
    for r in range(4):
        plane.note_rank_checkpoint(r, 0)
    plane.on_send(0, 1, _env(src=0, dst=1))  # stamped ckpt_tag=0
    for r in range(4):
        plane.note_rank_checkpoint(r, 1)
    # KEEP=2 retains {0,1}: the floor is still 0, nothing dropped.
    assert len(plane.logs[0]) == 1
    for r in range(4):
        plane.note_rank_checkpoint(r, 2)
    # Retained window is now {1,2}: the entry (ckpt_tag=0) is dead.
    assert plane.logs[0] == []
    assert [(gc["entries"], gc["live"]) for gc in _gc_records(job)] == [(1, 0)]


def test_gc_bound_follows_every_logged_tag():
    # The GC skips its rebuild while the lowest logged ``ckpt_tag`` it
    # knows of is at or above the floor, so every send must lower it:
    # here an entry from a rank not yet checkpointed (-1) is logged
    # after one stamped 0, and must still go once the floor is 0.
    job, plane = make_plane()
    Tracer(job.sim)
    plane.note_rank_checkpoint(0, 0)
    plane.on_send(0, 1, _env(src=0, dst=1))  # stamped 0
    plane.on_send(1, 2, _env(src=1, dst=2))  # stamped -1
    assert plane.oldest_tag == -1
    for r in range(1, 4):
        plane.note_rank_checkpoint(r, 0)
    assert plane.logs[1] == [] and len(plane.logs[0]) == 1
    assert plane.oldest_tag == 0
    assert [(gc["entries"], gc["live"]) for gc in _gc_records(job)] == [(1, 1)]


def test_snapshot_window_matches_checkpoint_retention():
    _job, plane = make_plane()
    for ds in range(4):
        plane.note_rank_checkpoint(0, ds)
    assert sorted(plane.snapshots[0]) == [2, 3]


# ------------------------------------------------------------------ rewind
def test_rewind_restores_counters_consumed_and_log_tail():
    _job, plane = make_plane()
    accept, sink = hooks(plane, 1)
    first = _env(src=0, dst=1)
    plane.on_send(0, 1, first)          # (0,1,0)
    assert accept(first)
    plane.on_send(1, 2, _env(src=1, dst=2))  # rank 1's own send, n=0
    sink(0, 0, first)                   # rank 1 consumed (0, 0)
    plane.note_rank_checkpoint(1, 0)    # snapshot: counters {2:1}
    plane.on_send(1, 2, _env(src=1, dst=2))  # post-snapshot send, n=1
    later = _env(src=0, dst=1)
    plane.on_send(0, 1, later)
    assert accept(later)
    sink(0, 0, later)                   # post-snapshot consumption
    plane._rewind(1, 0)
    chan = plane.channels[1]
    assert chan.send_seq == {2: 1}              # counter rolled back
    assert chan.consumed == {(0, 0)}            # snapshot consumption
    assert chan.seen == {(0, 0)}                # delivery filter rebased
    assert accept(first) is False               # ...in the installed hook
    assert accept(later) is True                # unconsumed: re-deliverable
    assert [e.n for e in plane.logs[1]] == [0]  # n=1 entry truncated
    # The re-execution regenerates the truncated send with the same lseq.
    redo = _env(src=1, dst=2)
    plane.on_send(1, 2, redo)
    assert redo.lseq == (1, 2, 1)


def test_rewind_purges_the_live_matching_queue():
    job, plane = make_plane()
    accept, _sink = hooks(plane, 1)
    matching = MatchingEngine(job.sim)
    env = _env(src=0, dst=1)
    plane.on_send(0, 1, env)
    assert accept(env)
    matching.deliver(env)  # sits unexpected in the new incarnation
    plane._rewind(1, None, matching)
    # The queued copy is gone and its lseq erased from ``seen``: the
    # replay is now the unique source of that logical message.
    assert matching.unexpected_count == 0
    assert plane.channels[1].seen == set()
    assert accept(env) is True


def test_torn_rewind_keeps_at_death_state_and_rebases_seen():
    _job, plane = make_plane()
    accept, sink = hooks(plane, 1)
    eaten, queued = _env(src=0, dst=1), _env(src=0, dst=1)
    for env in (eaten, queued):
        plane.on_send(0, 1, env)
        assert accept(env)
    sink(0, 0, eaten)
    plane.on_send(1, 2, _env(src=1, dst=2))
    # Dataset 3 was never snapshotted: rank 1 died inside it.
    plane._rewind(1, 3)
    chan = plane.channels[1]
    assert chan.send_seq == {2: 1} and chan.consumed == {(0, 0)}
    assert chan.seen == {(0, 0)}  # the unconsumed tail is re-deliverable
    assert accept(queued) is True


def test_rank_snapshot_and_rewind_touch_only_that_ranks_counters():
    """Per-endpoint counters: a checkpoint is a dict copy and a rewind
    a dict replace of *one* rank's record -- no scan over the job's
    channels -- with the same values the job-wide ``(src, dst)`` table
    used to give."""
    _job, plane = make_plane()
    flat = {}  # the old representation: (src, dst) -> next n

    def send(src, dst):
        plane.on_send(src, dst, _env(src=src, dst=dst))
        flat[(src, dst)] = flat.get((src, dst), 0) + 1

    for src, dst in [(0, 1), (1, 0), (1, 2), (2, 3), (1, 2), (3, 1)]:
        send(src, dst)
    others = {r: plane.channels[r].send_seq for r in (0, 2, 3)}
    plane.note_rank_checkpoint(1, 0)
    at_ckpt = {d: n for (s, d), n in flat.items() if s == 1}
    assert plane.snapshots[1][0].send_seq == at_ckpt
    for src, dst in [(1, 3), (1, 2), (0, 1), (2, 1)]:
        send(src, dst)
    before = {r: dict(c) for r, c in others.items()}
    plane._rewind(1, 0)
    assert plane.channels[1].send_seq == at_ckpt
    for r, counters in others.items():
        assert plane.channels[r].send_seq is counters  # same object...
        assert counters == before[r]                   # ...same values
        assert counters == {
            d: n for (s, d), n in flat.items() if s == r
        }


# ------------------------------------------------------------- determinants
def test_sink_records_only_wildcard_matches():
    _job, plane = make_plane()
    _accept, sink = hooks(plane, 1)
    exact, wild = _env(src=0, dst=1), _env(src=2, dst=1, tag=7)
    plane.on_send(0, 1, exact)
    plane.on_send(2, 1, wild)
    sink(0, 0, exact)              # exact post: consumption only
    sink(ANY_SOURCE, 7, wild)      # wildcard post: determinant too
    assert plane.channels[1].consumed == {(0, 0), (2, 0)}
    assert len(plane.dets[1]) == 1
    det = plane.dets[1][0]
    assert (det.env_src, det.env_tag, det.lseq) == (2, 7, (2, 1, 0))


class _StubApi:
    """What ``post_wildcard`` touches of an ``FmiContext``."""

    def __init__(self, sim, rank):
        self.rank = rank
        self.ctx = SimpleNamespace(matching=MatchingEngine(sim))

    def _check_ok(self):
        pass


def _record_wildcards(plane, rank, srcs, tag=7):
    _accept, sink = hooks(plane, rank)
    for src in srcs:
        env = _env(src=src, dst=rank, tag=tag)
        plane.on_send(src, rank, env)
        sink(ANY_SOURCE, tag, env)


def test_post_wildcard_replays_in_order_then_stops():
    job, plane = make_plane()
    _record_wildcards(plane, 1, (3, 2))
    plane._rewind(1, None)  # replay from the start up to the death point
    chan = plane.channels[1]
    assert (chan.det_cursor, len(plane.dets[1])) == (0, 2)
    api = _StubApi(job.sim, 1)
    posted = []
    api.ctx.matching = SimpleNamespace(post=lambda src, tag, comm: (
        posted.append((src, tag, comm)) or job.sim.event()
    ))
    assert plane.post_wildcard(api, ANY_SOURCE, 7, 0) is not None
    assert plane.post_wildcard(api, ANY_SOURCE, 7, 0) is not None
    # Rewritten to the recorded sources, in recorded order...
    assert posted == [(3, 7, 0), (2, 7, 0)]
    # ...then the cursor reaches the record's end: native posts,
    # recording again.
    assert plane.post_wildcard(api, ANY_SOURCE, 7, 0) is None
    _record_wildcards(plane, 1, (0,))
    assert len(plane.dets[1]) == 3


def test_sink_does_not_rerecord_while_replaying():
    _job, plane = make_plane()
    _record_wildcards(plane, 1, (3, 2))
    plane._rewind(1, None)
    _record_wildcards(plane, 1, (3,))  # a replayed match, cursor < limit
    assert len(plane.dets[1]) == 2


def test_post_wildcard_mismatch_degrades_to_free_order():
    job, plane = make_plane()
    tracer = Tracer(job.sim)
    _record_wildcards(plane, 1, (3,))
    plane._rewind(1, None)
    api = _StubApi(job.sim, 1)
    # Re-execution posts a different pattern than recorded: no rewrite,
    # and the cursor skips to the record's end so replay stays
    # free-order.
    assert plane.post_wildcard(api, ANY_SOURCE, ANY_TAG, 0) is None
    assert [ev.name for ev in tracer.events].count("mlog.det.mismatch") == 1
    assert plane.post_wildcard(api, ANY_SOURCE, 7, 0) is None


# ------------------------------------------------------ config and guards
def test_recovery_mode_validation():
    with pytest.raises(ValueError, match="unknown recovery mode"):
        FmiConfig(recovery="bogus")
    with pytest.raises(ValueError, match="multilevel"):
        FmiConfig(recovery="logged", level2_every=2)
    FmiConfig(recovery="logged")  # valid


# --------------------------------------------------------- orphan invariant
class _FakeEvent:
    def __init__(self, name, rank=0, ts=0.0, args=()):
        self.name = name
        self.rank = rank
        self.ts = ts
        self.args = dict(args)


def _violations(events):
    """The trace invariants' verdict on ``events``, replayed."""
    return TraceInvariants().replay(events).violations()


def test_orphan_checker_flags_unrelogged_delivery():
    ev = [
        _FakeEvent("mlog.log", rank=1, ts=1.0, args={"dst": 0, "n": 5}),
        _FakeEvent("net.recv", ts=1.1, args={"lseq": [1, 0, 5]}),
        _FakeEvent("mlog.rewind", rank=1, ts=2.0,
                   args={"counters": {"0": 5}}),
    ]
    violations = _violations(ev)
    assert [v.invariant for v in violations] == ["no-orphans"]
    assert "never re-logged" in violations[0].detail
    # Re-executing the send after the rewind discharges the obligation.
    ev.append(_FakeEvent("mlog.log", rank=1, ts=2.5,
                         args={"dst": 0, "n": 5}))
    assert _violations(ev) == []


def test_orphan_checker_ignores_messages_that_survive_the_rewind():
    ev = [
        _FakeEvent("mlog.log", rank=1, ts=1.0, args={"dst": 0, "n": 5}),
        _FakeEvent("net.recv", ts=1.1, args={"lseq": [1, 0, 5]}),
        # Counter 6 > n=5: the rewind kept the entry, no re-log needed.
        _FakeEvent("mlog.rewind", rank=1, ts=2.0,
                   args={"counters": {"0": 6}}),
    ]
    assert _violations(ev) == []
    assert _violations([]) == []


# --------------------------------------------------------------- end to end
ITERS = 6


def run_bsp(recovery, kill_node=None, kill_time=1.6, seed=0, trace=False):
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(6), RngRegistry(seed))
    tracer = Tracer(sim) if trace else None
    job = FmiJob(
        machine, bsp_app(ITERS, work_s=0.25), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, recovery=recovery),
    )
    done = job.launch()
    if kill_node is not None:
        def killer():
            yield sim.timeout(kill_time)
            machine.node(kill_node).crash("injected")
        sim.spawn(killer())
    results = sim.run(until=done)
    return job, tracer, results


def test_logged_recovery_matches_global_and_failure_free_bitwise():
    _j0, _t, clean = run_bsp("global")
    _j1, _t, logged = run_bsp("logged", kill_node=1)
    _j2, _t, global_ = run_bsp("global", kill_node=1)
    assert len(clean) == len(logged) == len(global_) == 8
    for rank, (c, l, g) in enumerate(zip(clean, logged, global_)):
        expect = expected_bsp_state(rank, 8, ITERS)
        assert np.array_equal(c, expect)
        assert np.array_equal(l, expect)
        assert np.array_equal(g, expect)


def _rescanned_logs(plane):
    """The logs :meth:`RecoveryPlane._gc` keeps when it rescans every
    log at every checkpoint: entries at or above the stable floor."""
    logs = {src: list(entries) for src, entries in plane.logs.items()}
    job = plane.job
    floors = []
    for r in range(job.num_ranks):
        if r in job.results:
            continue
        window = plane.snapshots.get(r)
        if not window:
            return logs
        floors.append(min(window))
    if not floors:
        return logs
    stable = min(floors)
    return {src: [e for e in entries if e.ckpt_tag >= stable]
            for src, entries in logs.items()}


def test_gc_keeps_what_a_rescan_keeps_without_rebuilding_every_time(monkeypatch):
    # The plane keeps a lower bound on the logged ``ckpt_tag``s and
    # returns before the rebuild while the floor has not passed it.
    # After every checkpoint of a killed run the logs must be the ones
    # the rescanning body leaves, and most checkpoints rebuild nothing.
    calls, rebuilds = [], []
    gc, trim = RecoveryPlane._gc, RecoveryPlane._trim

    def trimmed(plane, kept_logs):
        rebuilds.append(kept_logs)
        return trim(plane, kept_logs)

    def checked(plane):
        want = _rescanned_logs(plane)
        before = len(rebuilds)
        gc(plane)
        calls.append(len(rebuilds) - before)
        assert plane.logs == want
        assert all(e.ckpt_tag >= plane.oldest_tag
                   for entries in plane.logs.values() for e in entries)

    monkeypatch.setattr(RecoveryPlane, "_gc", checked)
    monkeypatch.setattr(RecoveryPlane, "_trim", trimmed)
    job, _tracer, results = run_bsp("logged", kill_node=1, trace=True)
    for rank, u in enumerate(results):
        assert np.array_equal(u, expected_bsp_state(rank, 8, ITERS))
    # (the rewind trims too: only the GC's own rebuilds are counted)
    gc_rebuilds = sum(calls)
    assert len(_gc_records(job)) <= gc_rebuilds < len(calls) // 2, (
        gc_rebuilds, len(calls))


def test_logged_survivors_never_restore():
    job, tracer, results = run_bsp("logged", kill_node=1, trace=True)
    names = [ev.name for ev in tracer.events]
    # Only the killed slot's two ranks restore, through the plane --
    # the global checkpoint-restore path never runs.
    assert names.count("mlog.restore.begin") == 2
    assert names.count("ckpt.restore.begin") == 0
    assert job.restores_done == 2
    assert sum(ev.args["msgs"] for ev in tracer.events
               if ev.name == "mlog.replay.done") > 0
    # Survivors kept their original incarnation throughout.
    for rank in (0, 1, 4, 5, 6, 7):
        assert job.rank_procs[rank].incarnation == 0
    for rank in (2, 3):
        assert job.rank_procs[rank].incarnation == 1
    assert _violations(tracer.events) == []


def test_global_mode_attaches_no_plane():
    job, _tracer, _results = run_bsp("global")
    assert type(job.recovery) is RecoveryFamily
    assert job.recovery.on_send is None  # envelopes go unstamped
    assert all(ctx.recv_filter is None for ctx in job.transport.contexts)
    assert verdict(job.transport, job.recovery) is None


def ending_under(recovery, kills):
    """How a 4-rank Himeno job with one XOR group of 4 and one spare
    ends when ``kills`` -- ``(time, slot)`` pairs -- crash its nodes:
    the abort cause's exception type and its lost-member count."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(17), RngRegistry(0))
    params = HimenoParams(iterations=50, nx=8, ny=8, nz=16, extra_work_s=0.05)
    job = FmiJob(
        machine, himeno_fmi_app(params), num_ranks=4, procs_per_node=1,
        config=FmiConfig(interval=2, xor_group_size=4, spare_nodes=1,
                         recovery=recovery),
    )
    engine = ChaosEngine(machine, jobs=[job])
    done = job.launch()
    engine.arm(Scenario("double-loss", [
        Rule(AtTime(t), KillSlot(slot)) for t, slot in kills
    ]))
    with pytest.raises(FmiAbort) as abort:
        sim.run(until=done)
    cause = str(abort.value)
    lost = re.search(r"(\d+) members lost", cause)
    return cause.split("(")[0], lost and int(lost.group(1))


@pytest.mark.parametrize("kills", [
    # a kill, then two members of the group at one later instant
    [(0.9646696849397154, 1), (2.9919350351154375, 3),
     (2.9919350351154375, 0)],
    # two members at one instant, nothing before
    [(2.0, 0), (2.0, 1)],
], ids=["after-a-recovery", "same-instant"])
def test_two_lost_members_end_alike_under_global_and_logged(kills):
    """A member killed at the same instant as the restarting one has no
    replacement yet: the logged rebuild counts it lost (and spawns
    nothing on its dead node) instead of ending on a raw
    ``NodeDownError``."""
    global_ = ending_under("global", kills)
    assert global_ == ("UnrecoverableFailure", 2)
    assert ending_under("logged", kills) == global_


# ------------------------------------------------- wildcard replay ordering
def wildcard_app(rounds):
    """Rank 0 drains its peers through ANY_SOURCE receives, spaced in
    time so a kill can land *between* two matches of one drain.  The
    accumulated sum is order-insensitive (exact in float64), so it must
    come out bit-identical to the failure-free run iff every logical
    message is consumed exactly once across the rollback; match *order*
    correctness is asserted through the determinant machinery."""

    def app(api):
        u = np.zeros(2, dtype=np.float64)
        yield from api.init()
        while True:
            n = yield from api.loop([u])
            if n >= rounds:
                break
            yield api.elapse(0.2)
            if api.rank == 0:
                for _ in range(api.size - 1):
                    yield api.elapse(0.01)
                    val = yield from api.recv(source=ANY_SOURCE, tag=7)
                    u[1] += val
            else:
                yield api.send(0, float(api.rank * 10 + n), tag=7)
            yield from api.barrier()
            u[0] = n + 1.0
        yield from api.finalize()
        return u.copy()

    return app


def run_wildcard(recovery, kill_after_dets=None, rounds=5):
    """Returns ``(job, results)``; the run is traced (``job.sim.tracer``)."""
    sim = Simulator()
    Tracer(sim)
    machine = Machine(sim, SIERRA.with_nodes(6), RngRegistry(0))
    job = FmiJob(
        machine, wildcard_app(rounds), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, recovery=recovery),
    )
    done = job.launch()
    if kill_after_dets is not None:
        plane = job.recovery

        def killer():
            # Land the crash mid-drain: right after the kill_after_dets-th
            # wildcard match is recorded, with the drain still unfinished.
            while sum(map(len, plane.dets.values())) < kill_after_dets:
                yield sim.timeout(0.005)
            machine.node(0).crash("injected")

        sim.spawn(killer())
    results = sim.run(until=done)
    return job, results


def test_determinants_reproduce_wildcard_match_order(monkeypatch):
    _j, clean = run_wildcard("logged")
    windows = []
    real_rewind = RecoveryPlane._rewind

    def rewind(plane, rank, dataset, matching=None):
        real_rewind(plane, rank, dataset, matching)
        windows.append((rank, plane.channels[rank].det_cursor,
                        len(plane.dets.get(rank, ()))))

    monkeypatch.setattr(RecoveryPlane, "_rewind", rewind)
    # Kill rank 0's own slot three matches into an ANY_SOURCE drain:
    # its re-execution re-posts those wildcards and the plane rewrites
    # them to the recorded sources, in the recorded order.
    job, killed = run_wildcard("logged", kill_after_dets=7 * 2 + 3)
    plane = job.recovery
    assert plane.dets[0]
    # The death point sat mid-drain, so the rewind left a non-empty
    # replay window (cursor at the checkpoint's drain boundary, the
    # record's end mid-drain)...
    [(cursor, end)] = [(c, e) for rank, c, e in windows if rank == 0]
    assert cursor % 7 == 0 and end % 7 != 0 and cursor < end
    # ...the replay caught up, and every rewritten post matched its
    # recorded message.
    chan = plane.channels[0]
    assert chan.det_cursor == len(plane.dets[0])
    assert not any(ev.name == "mlog.det.mismatch"
                   for ev in job.sim.tracer.events)
    assert len(clean) == len(killed) == 8
    for c, k in zip(clean, killed):
        assert np.array_equal(c, k)


# ----------------------------------------------------------- property test
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=6, deadline=None)
@given(
    kill_time=st.floats(min_value=0.9, max_value=2.4),
    kill_node=st.integers(min_value=0, max_value=3),
)
def test_logged_answer_is_failure_free_for_any_single_kill(
        kill_time, kill_node):
    _job, _tracer, results = run_bsp(
        "logged", kill_node=kill_node, kill_time=kill_time,
    )
    assert len(results) == 8
    for rank, u in enumerate(results):
        assert np.array_equal(u, expected_bsp_state(rank, 8, ITERS))
