"""The message path: one send body, one post body, for every API flavour.

``Communicator.send_async`` / ``post_recv`` are the whole path from a
collective to ``Transport.send`` / ``MatchingEngine.post``.  What MPI,
FMI (three recovery families) and the logged family's rebuild ensemble
differ in is data the two bodies read off the API -- ``fproc``,
``ctx.epoch``, ``addr_table``, ``recovery`` -- so every flavour is held
to the same envelope, the same counters and the same order of checks:

    gate -> range check -> size check -> counters -> on_send -> Transport.send
"""

import math

import numpy as np
import pytest

import repro.fmi.msglog as msglog
from repro.apps.synthetic import bsp_app, expected_bsp_state
from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.errors import FailureNotified
from repro.fmi.payload import Payload
from repro.mpi.api import MpiApi
from repro.mpi.communicator import Communicator
from repro.mpi.runtime import MpiJob
from repro.net.matching import ANY_SOURCE, ANY_TAG
from repro.net.transport import Transport
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

FAMILIES = ("global", "logged", "replicated")
FLAVOURS = ("mpi",) + FAMILIES
RANKS, PPN = 4, 1  # one rank per node: every pair is cross-slot (logged)


def run(flavour, body, monkeypatch):
    """Run ``body(api)`` as every rank's application under ``flavour``.

    Returns ``(job, sent)``: ``sent`` holds ``(src ctx, dst addr, env)``
    for every ``Transport.send`` entered, mirror copies included, in
    entry order -- so the record at the index a sender noted before its
    ``send_async`` is that call's own.
    """
    sent = []
    real_send = Transport.send

    def recording_send(self, src, dst_addr, env):
        sent.append((src, dst_addr, env))
        return real_send(self, src, dst_addr, env)

    monkeypatch.setattr(Transport, "send", recording_send)
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    body.sent = sent
    if flavour == "mpi":
        job = MpiJob(machine, body, RANKS, procs_per_node=PPN,
                     charge_init=False)
    else:
        job = FmiJob(
            machine, body, num_ranks=RANKS, procs_per_node=PPN,
            config=FmiConfig(checkpoint_enabled=False, xor_group_size=4,
                             recovery=flavour, spare_nodes=2),
        )
    sim.run(until=job.launch())
    return job, sent


def own(sent, mark, api, dst_world):
    """The envelopes ``api`` itself sent to ``dst_world`` since ``mark``
    (the replicated family's mirror copies go to another address)."""
    addr = api.addr_table[dst_world]
    return [env for ctx, dst_addr, env in sent[mark:]
            if ctx is api.ctx and dst_addr == addr]


def _send_seq(api, dst_world):
    """Rank->``dst_world`` channel sequence of ``api``'s family (the
    logged plane keys channels by rank, the replicated one by context)."""
    channels = api.recovery.channels
    chan = channels[api.rank] if isinstance(channels, list) else channels[api.ctx]
    return chan.send_seq.get(dst_world, 0)


# ---------------------------------------------------------------- envelopes
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_every_envelope_field_counter_and_route(flavour, monkeypatch):
    seen = []

    def body(api):
        # a sub-communicator in reverse rank order: comm-relative ranks
        # differ from world ranks, and the id is not the world's
        comm = yield from api.world.split(0, key=-api.rank)
        assert comm.members == [3, 2, 1, 0] and comm.id != api.world.id
        if comm.rank == 0:  # world rank 3 -> comm rank 2 = world rank 1
            before = len(body.sent)
            yield comm.send_async(2, ("t", 1), 12, 5)  # int nbytes
            yield comm.send_async(2, "hello", None, 6)  # sized payload
            seen.append((api, comm, before))
        elif comm.rank == 2:
            first = yield from comm.recv(0, 5)
            second = yield from comm.recv(0, 6)
            assert (first, second) == (("t", 1), "hello")
        return None

    job, sent = run(flavour, body, monkeypatch)
    assert len(seen) == (2 if flavour == "replicated" else 1)  # both copies
    for api, comm, mark in seen:
        # routed by world rank through the job's table, which the API
        # holds, not copies
        assert api.addr_table is job.addr_table
        mine = own(sent, mark, api, 1)
        assert len(mine) == 2
        for n, (env, (data, size, tag)) in enumerate(
            zip(mine, ((("t", 1), 12.0, 5), ("hello", 5.0, 6)))
        ):
            assert (env.src, env.dst, env.tag, env.comm_id) == (0, 2, tag, comm.id)
            assert env.epoch == api.ctx.epoch
            assert env.nbytes == size and type(env.nbytes) is float
            assert env.data == data
            if flavour in ("mpi", "global"):
                assert env.lseq is None
            else:
                # world ranks; the split's allgather took the channel's
                # earlier numbers, these two are consecutive
                assert env.lseq[:2] == (3, 1)
                assert env.lseq[2] == _send_seq(api, 1) - 2 + n


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_mutable_payloads_are_copied_at_send_immutable_ones_are_not(
        flavour, monkeypatch):
    got = {}

    def body(api):
        if api.rank == 0:
            arr = np.arange(4.0)
            blob = Payload(np.arange(8, dtype=np.uint8), nbytes=64.0)
            frozen = ("a", 1)
            mark = len(body.sent)
            events = [api.world.send_async(1, x, None, 3 + i)
                      for i, x in enumerate((arr, blob, frozen))]
            arr[:] = -1.0  # after the send: the receiver must not see it
            blob.data[:] = 0
            mine = own(body.sent, mark, api, 1)
            assert mine[0].data is not arr and mine[1].data is not blob
            assert mine[2].data is frozen
            assert [e.nbytes for e in mine] == [32.0, 64.0, 9.0]
            for evt in events:
                yield evt
        elif api.rank == 1:
            got[api.ctx] = received = []
            for tag in (3, 4, 5):
                received.append((yield from api.recv(0, tag)))
        return None

    run(flavour, body, monkeypatch)
    assert len(got) == (2 if flavour == "replicated" else 1)
    for arr, blob, frozen in got.values():
        assert np.array_equal(arr, np.arange(4.0))
        assert np.array_equal(blob.data, np.arange(8, dtype=np.uint8))
        assert blob.nbytes == 64.0 and frozen == ("a", 1)


# ---------------------------------------------------------- order of checks
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_gate_then_range_then_size_then_seam_then_transport(
        flavour, monkeypatch):
    order = []
    checked = []

    def body(api):
        if api.rank != 0:
            if api.rank == 1:
                yield from api.recv(0, 9)
            return None
        world = api.world
        if flavour == "mpi":
            # never notified, no plane: the class-level defaults (a
            # slotted MpiApi has no dict to shadow them in)
            assert not hasattr(api, "__dict__")
            assert api.fproc.notified_pending is False
            assert api.recovery.on_send is None
        else:
            # gate first: a notified rank gets FailureNotified from a
            # send whose rank and size are both bad, and from a post
            api.fproc.notified_pending = True
            for call in (lambda: world.send_async(99, None, -1.0, 9),
                         lambda: world.post_recv(1, 9),
                         lambda: world.post_recv(ANY_SOURCE, 9)):
                with pytest.raises(FailureNotified):
                    call()
            api.fproc.notified_pending = False
        # range before size
        with pytest.raises(ValueError, match="out of range"):
            world.send_async(99, None, -1.0, 9)
        with pytest.raises(ValueError, match="out of range"):
            world.send_async(-1, None, 8.0, 9)
        # the seam runs before the transport is entered, once each
        family = api.recovery
        if family.on_send is not None:
            real = family.on_send
            family.on_send = lambda *a: (order.append("on_send"), real(*a))[1]
        mark = len(body.sent)
        order.append("send_async")
        evt = world.send_async(1, None, 8.0, 9)
        order.extend("transport" for ctx, _a, _e in body.sent[mark:]
                     if ctx is api.ctx)
        if family.on_send is not None:
            del family.on_send  # back to the class's bound method
        checked.append(api)
        yield evt
        return None

    run(flavour, body, monkeypatch)
    copies = 2 if flavour == "replicated" else 1
    assert len(checked) == copies
    if flavour in ("mpi", "global"):
        assert order == ["send_async", "transport"]
    elif flavour == "logged":
        assert order == ["send_async", "on_send", "transport"]
    else:
        # each copy: stamped once, then the mirror copy to the
        # destination's other replica and its own send
        assert order == ["send_async", "on_send", "transport", "transport"] * 2


# ------------------------------------------ a bad size touches nothing (bug)
@pytest.mark.parametrize("bad", [-1.0, -8, math.nan])
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_bad_size_is_refused_before_any_counter_or_seam(
        flavour, bad, monkeypatch):
    """Was: ``Fabric.send`` refused it *after* the counters were bumped
    and ``on_send`` ran -- a phantom ``LogEntry`` (replayed after a
    failure), an advanced ``send_seq``; mirror copies already on the
    wire under ``"replicated"``."""
    delivered = []

    def body(api):
        if api.rank == 1:
            env = yield api.world.post_recv(0, 4)
            delivered.append(env)
        if api.rank != 0:
            return None
        family = api.recovery

        def state():
            # every transport send, mirror copies included, is in body.sent
            planes = () if flavour in ("mpi", "global") else (
                _send_seq(api, 1),
                len(getattr(family, "logs", {}).get(0, ())),
            )
            return (len(body.sent),) + planes

        before = state()
        with pytest.raises(ValueError, match="message size"):
            api.world.send_async(1, "x", bad, 4)
        assert state() == before
        yield api.world.send_async(1, "x", 8.0, 4)
        assert len(own(body.sent, before[0], api, 1)) == 1
        return None

    job, _sent = run(flavour, body, monkeypatch)
    assert len(delivered) == (2 if flavour == "replicated" else 1)
    for env in delivered:
        assert env.data == "x"
        # the refused send took no channel number
        assert env.lseq == (None if flavour in ("mpi", "global") else (0, 1, 0))
    if flavour == "logged":
        assert [(e.n, e.nbytes) for e in job.recovery.logs[0]] == [(0, 8.0)]


# ------------------------------------------------------------- wildcards
@pytest.mark.parametrize("flavour", FLAVOURS)
def test_wildcard_posts_reach_the_family_exact_posts_do_not(
        flavour, monkeypatch):
    asked = []
    got = {}

    def body(api):
        if api.rank == 0:
            for tag, data in ((7, "w"), (8, "e"), (9, "t")):
                yield api.world.send_async(1, data, 8.0, tag)
        elif api.rank == 1:
            family = api.recovery
            if flavour == "mpi":  # the class-level default: post natively
                assert family.post_wildcard(api, ANY_SOURCE, 7, 0) is None
            elif "post_wildcard" not in vars(family):
                real = family.post_wildcard
                family.post_wildcard = lambda *a: (asked.append(a), real(*a))[1]
            wild_src = yield from api.world.recv(ANY_SOURCE, 7)
            exact = yield from api.world.recv(0, 8)
            wild_tag = yield from api.world.recv(0, ANY_TAG)
            got[api.ctx] = (wild_src, exact, wild_tag)
        return None

    run(flavour, body, monkeypatch)
    copies = 2 if flavour == "replicated" else 1
    assert list(got.values()) == [("w", "e", "t")] * copies
    if flavour != "mpi":
        # each copy asked about its two wildcard posts and not its exact one
        assert sorted((a[0].ctx.label, a[1:]) for a in asked) == sorted(
            (ctx.label, pattern) for ctx in got
            for pattern in ((ANY_SOURCE, 7, 0), (0, ANY_TAG, 0))
        )
        assert all(a[0].ctx in got for a in asked)


# --------------------------------------------- epoch 0 outside the families
def test_mpi_contexts_end_at_epoch_zero(monkeypatch):
    def body(api):
        total = yield from api.allreduce(api.rank)  # macro tier: no sends
        total += yield from api.sendrecv(
            (api.rank + 1) % api.size, api.rank,
            source=(api.rank - 1) % api.size)
        return total

    job, sent = run("mpi", body, monkeypatch)
    assert sent and all(env.epoch == 0 and env.lseq is None
                        for _c, _a, env in sent)
    assert job.transport.contexts
    assert all(ctx.epoch == 0 for ctx in job.transport.contexts)


def test_rebuild_ensemble_is_plain_mpi_at_epoch_zero(monkeypatch):
    """The logged family's sidecar rebuild: ``MpiApi`` over positions in
    the XOR group, a private table, epoch 0, and -- under a family that
    stamps every application send -- no lseq and no log entry."""
    sidecars = []

    def recording_api(*args):
        api = MpiApi(*args)
        sidecars.append(api)
        return api

    monkeypatch.setattr(msglog, "MpiApi", recording_api)
    sends = []  # the ctx of every send_async that returned
    real_send_async = Communicator.send_async

    def counting_send_async(self, *args):
        evt = real_send_async(self, *args)
        sends.append(self.api.ctx)
        return evt

    monkeypatch.setattr(Communicator, "send_async", counting_send_async)
    sent = []
    real_send = Transport.send
    monkeypatch.setattr(
        Transport, "send",
        lambda self, src, addr, env: (sent.append((src, addr, env)),
                                      real_send(self, src, addr, env))[1],
    )
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(0))
    iters = 6
    job = FmiJob(
        machine, bsp_app(iters, work_s=0.25), num_ranks=8, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, recovery="logged",
                         spare_nodes=2),
    )
    done = job.launch()
    sim.timeout(1.6).callbacks.append(
        lambda _e: machine.node(1).crash("injected"))
    results = sim.run(until=done)
    for rank, state in enumerate(results):
        assert np.array_equal(state, expected_bsp_state(rank, 8, iters))

    assert sidecars and job.restores_done > 0
    rebuild_ctxs = {api.ctx for api in sidecars}
    for api in sidecars:
        assert type(api) is MpiApi
        assert not hasattr(api, "__dict__")  # class-level fproc / recovery
        assert api.ctx.label.startswith("mlog:rebuild:")
        assert api.ctx.epoch == 0 and api.ctx.closed
        assert sorted(api.addr_table) == list(range(api.size))
        assert api.addr_table[api.rank] == api.ctx.addr
    side_traffic = [(addr, env) for ctx, addr, env in sent
                    if ctx in rebuild_ctxs]
    # every sidecar send reached Transport.send exactly once
    assert side_traffic and sum(ctx in rebuild_ctxs for ctx in sends) == len(
        side_traffic)
    side_addrs = {ctx.addr for ctx in rebuild_ctxs}
    for addr, env in side_traffic:
        assert env.epoch == 0 and env.lseq is None and addr in side_addrs
    # application traffic in the same run was stamped
    assert any(env.lseq is not None for ctx, _a, env in sent
               if ctx not in rebuild_ctxs)
