"""Macro-event fast path vs the hop-level conformance oracle.

The contract of :mod:`repro.mpi.macro`:

* **results are byte-identical** to the hop engine's, for every
  collective, payload shape and (non-)power-of-two size -- the macro
  path replays the exact fold/copy order, so even float rounding
  matches bit-for-bit;
* **completion times agree with the oracle** within a small tolerance
  (the model ignores intra-collective NIC/memory-bus contention; the
  hop engine prices it);
* under ``auto``, anything that makes per-hop fidelity load-bearing
  falls back to the hop engine transparently.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine, TraceInjector
from repro.cluster.spec import SIERRA
from repro.mpi.api import MpiApi, ParallelApi
from repro.mpi.collectives import set_collective_mode
from repro.net import LinkFaultModel
from repro.mpi.ops import MAX, SUM
from repro.mpi.runtime import MpiJob
from repro.obs.tracer import Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry
from tests.collective_engine import pinned_engine, verdict

#: relative tolerance on collective completion time (max over ranks);
#: covers the contention the closed-form model deliberately ignores
REL_TOL = 0.15
#: absolute floor for near-zero durations (a couple of sw overheads)
ABS_TOL = 5e-6


@pytest.fixture(autouse=True)
def _auto_engine():
    with pinned_engine(None):
        yield


def run_timed(app, nprocs, mode, ppn=1, nodes=None, seed=0, prep=None):
    """Run ``app`` (rank generator returning (result, t0, t1)) under a
    collective engine mode; returns (results, duration, job)."""
    with pinned_engine(mode):
        sim = Simulator()
        machine = Machine(
            sim,
            SIERRA.with_nodes(nodes or max(2, -(-nprocs // ppn))),
            RngRegistry(seed),
        )
        job = MpiJob(machine, app, nprocs, procs_per_node=ppn,
                     charge_init=False)
        if prep is not None:
            prep(sim, machine, job)
        out = sim.run(until=job.launch())
    results = [r for r, _t0, _t1 in out]
    start = min(t0 for _r, t0, _t1 in out)
    end = max(t1 for _r, _t0, t1 in out)
    return results, end - start, job


def same(a, b) -> bool:
    """Deep equality that treats ndarrays bit-for-bit."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def check_conformance(app, nprocs, ppn=1, nodes=None):
    hop_res, hop_t, _ = run_timed(app, nprocs, "hops", ppn=ppn, nodes=nodes)
    mac_res, mac_t, job = run_timed(app, nprocs, "macro", ppn=ppn, nodes=nodes)
    macro = job.transport.macro
    assert macro is not None and macro.instances_macro > 0
    assert macro.instances_hop == 0
    for r_hop, r_mac in zip(hop_res, mac_res):
        assert same(r_hop, r_mac), (r_hop, r_mac)
    assert mac_t == pytest.approx(hop_t, rel=REL_TOL, abs=ABS_TOL), (
        f"macro {mac_t:.3e}s vs oracle {hop_t:.3e}s"
    )
    return hop_t, mac_t


def timed(coll):
    """Wrap a collective-driving generator into the timed app shape."""
    def app(mpi):
        t0 = mpi.now
        result = yield from coll(mpi)
        return result, t0, mpi.now
    return app


# ------------------------------------------------------------------ kinds

SIZES = [3, 5, 8, 13]


@pytest.mark.parametrize("nprocs", SIZES)
@pytest.mark.parametrize("nbytes", [None, 8.0, 65536.0])
def test_bcast_conformance(nprocs, nbytes):
    def coll(mpi):
        value = np.arange(16, dtype=np.float64) * 3.5 if mpi.rank == 1 else None
        out = yield from mpi.bcast(value, root=1, nbytes=nbytes)
        return out
    check_conformance(timed(coll), nprocs)


@pytest.mark.parametrize("nprocs", SIZES)
def test_reduce_conformance(nprocs):
    def coll(mpi):
        out = yield from mpi.reduce(
            np.full(8, 0.1 * (mpi.rank + 1)), SUM, root=min(2, mpi.size - 1)
        )
        return out
    check_conformance(timed(coll), nprocs)


@pytest.mark.parametrize("nprocs", SIZES)
@pytest.mark.parametrize("nbytes", [None, 4096.0])
def test_allreduce_conformance(nprocs, nbytes):
    def coll(mpi):
        out = yield from mpi.allreduce(
            np.full(4, 1.0 / (mpi.rank + 3)), SUM, nbytes=nbytes
        )
        return out
    check_conformance(timed(coll), nprocs)


@pytest.mark.parametrize("nprocs", SIZES)
def test_barrier_conformance(nprocs):
    def coll(mpi):
        yield from mpi.barrier()
        return True
    check_conformance(timed(coll), nprocs)


@pytest.mark.parametrize("nprocs", SIZES)
def test_gather_conformance(nprocs):
    def coll(mpi):
        out = yield from mpi.gather({"r": mpi.rank, "v": mpi.rank * 2.0}, root=0)
        return out
    check_conformance(timed(coll), nprocs)


@pytest.mark.parametrize("nprocs", SIZES)
def test_allgather_conformance(nprocs):
    def coll(mpi):
        out = yield from mpi.allgather(np.arange(mpi.rank + 1, dtype=np.int64))
        return out
    check_conformance(timed(coll), nprocs)


@pytest.mark.parametrize("nprocs", SIZES)
def test_scatter_conformance(nprocs):
    def coll(mpi):
        values = None
        if mpi.rank == 0:
            # heterogeneous payloads: rank i gets an (i+1)-element array
            values = [np.full(i + 1, float(i)) for i in range(mpi.size)]
        out = yield from mpi.scatter(values, root=0)
        return out
    check_conformance(timed(coll), nprocs)


@pytest.mark.parametrize("nprocs", SIZES)
def test_alltoall_conformance(nprocs):
    def coll(mpi):
        values = [
            np.full(dst + 1, float(mpi.rank * 100 + dst))
            for dst in range(mpi.size)
        ]
        out = yield from mpi.alltoall(values)
        return out
    check_conformance(timed(coll), nprocs)


def test_multi_rank_per_node_conformance():
    """Mixed intra-/inter-node edges (12 ranks per node)."""
    def coll(mpi):
        out = yield from mpi.allreduce(float(mpi.rank), MAX)
        return out
    check_conformance(timed(coll), 24, ppn=12)


@settings(max_examples=12, deadline=None)
@given(
    nprocs=st.integers(2, 11),
    payload=st.integers(1, 2048),
    root=st.integers(0, 10),
)
def test_property_bcast_reduce_agree(nprocs, payload, root):
    root %= nprocs

    def coll(mpi):
        value = np.arange(payload, dtype=np.float64) if mpi.rank == root else None
        got = yield from mpi.bcast(value, root=root)
        total = yield from mpi.reduce(got.sum() * (mpi.rank + 1), SUM, root=root)
        return got.sum(), total
    check_conformance(timed(coll), nprocs)


def test_back_to_back_sequences_stay_aligned():
    """Several different collectives in sequence reuse the per-rank
    sequence counters; results must stay matched call-for-call."""
    def coll(mpi):
        a = yield from mpi.allreduce(mpi.rank + 1, SUM)
        yield from mpi.barrier()
        b = yield from mpi.bcast(a * 2 if mpi.rank == 0 else None, root=0)
        c = yield from mpi.gather(b + mpi.rank, root=1)
        return a, b, c
    check_conformance(timed(coll), 6)


# ------------------------------------------------------- pricing (satellite)


def test_scatter_alltoall_price_per_destination():
    """Regression for the `_nbytes(values[0])` bug: heterogeneous
    payloads must be priced per destination by BOTH engines (they
    share ``wire_bytes``).  Pre-fix, the hop path priced every scatter
    send at ``sizeof(values[0])`` -- 8 bytes here instead of 8 KiB."""
    def coll(mpi):
        values = None
        if mpi.rank == 0:
            values = [np.zeros(1 if i == 0 else 1024) for i in range(mpi.size)]
        out = yield from mpi.scatter(values, root=0)
        return out
    hop_t = run_timed(timed(coll), 4, "hops")[1]
    mac_t = run_timed(timed(coll), 4, "macro")[1]
    assert mac_t == pytest.approx(hop_t, rel=REL_TOL, abs=ABS_TOL)
    per_msg = 1024 * 8 / SIERRA.network.link_bw
    assert hop_t > 3 * per_msg  # three full-size transfers, serialized

    def a2a(mpi):
        values = [np.zeros(1 if d == 0 else 512) for d in range(mpi.size)]
        out = yield from mpi.alltoall(values)
        return out
    hop_t = run_timed(timed(a2a), 4, "hops")[1]
    mac_t = run_timed(timed(a2a), 4, "macro")[1]
    assert mac_t == pytest.approx(hop_t, rel=REL_TOL, abs=ABS_TOL)
    assert hop_t > 512 * 8 / SIERRA.network.link_bw


# ------------------------------------------------------------- fallbacks


def _fallback_app(mpi):
    out = yield from mpi.allreduce(mpi.rank + 1, SUM)
    return out, 0.0, mpi.now


def _run_auto(prep=None, app=_fallback_app, nprocs=4):
    return run_timed(app, nprocs, "auto", prep=prep)


def expect_fallback(job, reason):
    macro = job.transport.macro
    assert macro is not None, "coordinator should have been consulted"
    assert macro.instances_macro == 0
    assert macro.fallbacks.get(reason, 0) > 0


def test_mode_override_ignores_the_environment(monkeypatch):
    """``None`` restores ``auto`` whatever ``REPRO_COLLECTIVES`` says:
    the library never looks."""
    monkeypatch.setenv("REPRO_COLLECTIVES", "hops")
    assert set_collective_mode("macro") == "auto"  # returns the previous
    assert set_collective_mode(None) == "macro"
    assert set_collective_mode(None) == "auto"
    with pytest.raises(ValueError, match="unknown collective mode"):
        set_collective_mode("bogus")
    results, _t, job = _run_auto()
    assert results == [10] * 4
    assert job.transport.macro.instances_macro > 0


def test_auto_uses_macro_when_nominal():
    results, _t, job = _run_auto()
    assert results == [10] * 4
    assert job.transport.macro.instances_macro > 0


def test_a_traced_run_stays_macro_with_the_same_answer():
    tracers = []

    def prep(sim, machine, job):
        tracers.append(Tracer(sim))
    bare, bare_t, _job = _run_auto()
    results, t, job = _run_auto(prep)
    assert results == bare == [10] * 4 and t == bare_t
    macro = job.transport.macro
    assert macro.instances_macro == 1 and macro.instances_hop == 0
    record, = [ev for ev in tracers[0].events if ev.name == "mpi.collective"]
    assert record.args["kind"] == "allreduce" and record.args["size"] == 4


def _armed_injector(sim):
    """A real injector, armed and never firing inside these runs."""
    injector = TraceInjector(sim, [(1e9, [0])], kill=lambda nodes: None)
    injector.start()
    return injector


def test_verdict_priority_and_coverage():
    """Unit test of ``MacroCollectives.verdict``: the six reasons are
    stacked from the lowest priority up, so each must outrank every one
    already in force.  A tracer is none of them."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(4), RngRegistry(0))
    job = MpiJob(machine, _fallback_app, 4, procs_per_node=1,
                 charge_init=False)
    tr = job.transport
    assert verdict(tr) is None
    Tracer(sim)
    assert verdict(tr) is None
    # The family answers from its own field.
    for reason in ("msglog", "replicated"):
        assert verdict(tr, SimpleNamespace(hop_fidelity=reason)) == reason
    family = SimpleNamespace(hop_fidelity="msglog")
    machine.node(1).set_limp(bw_factor=4.0, latency_factor=2.0)
    assert verdict(tr, family) == "limp"
    machine.fabric.partition([[0, 1], [2, 3]])
    assert verdict(tr, family) == "partition"
    tr.set_faults(LinkFaultModel(np.random.default_rng(0), drop_p=0.1))
    assert verdict(tr, family) == "omission"
    injector = _armed_injector(sim)
    assert verdict(tr, family) == "injector"
    assert verdict(tr, family, hop_only=1) == "checkpoint"
    assert verdict(tr, family, hop_only=2) == "checkpoint"
    injector.stop()
    # a detached model may still have duplicates in flight
    tr.clear_faults()
    assert verdict(tr, family) == "omission"


def test_auto_falls_back_under_limp():
    def prep(sim, machine, job):
        machine.node(1).set_limp(bw_factor=4.0, latency_factor=4.0)
    results, _t, job = _run_auto(prep)
    assert results == [10] * 4
    expect_fallback(job, "limp")


def test_auto_falls_back_while_an_injector_is_armed():
    armed = []

    def prep(sim, machine, job):
        armed.append(_armed_injector(sim))
    results, _t, job = _run_auto(prep)
    assert results == [10] * 4
    expect_fallback(job, "injector")
    armed[0].stop()
    assert verdict(job.transport) is None
    # macro again once nothing is armed
    results, _t, job = _run_auto()
    assert results == [10] * 4
    assert job.transport.macro.instances_macro > 0


class _LoggingFamily(ParallelApi.recovery):
    """No fault tolerance, but a family whose hops are load-bearing."""

    hop_fidelity = "msglog"


def test_auto_falls_back_under_a_hop_recording_family(monkeypatch):
    # the verdict reads the caller's API; a slotted MpiApi takes the
    # family on its class, for the length of the test
    monkeypatch.setattr(MpiApi, "recovery", _LoggingFamily)
    results, _t, job = _run_auto()
    assert results == [10] * 4
    expect_fallback(job, "msglog")


def test_auto_falls_back_in_hop_fidelity_scope():
    def app(mpi):
        mpi._hop_only += 1  # the scope FMI_Loop and checkpoints open
        try:
            out = yield from mpi.allreduce(mpi.rank + 1, SUM)
        finally:
            mpi._hop_only -= 1
        out2 = yield from mpi.allreduce(out, SUM)
        return (out, out2), 0.0, mpi.now

    results, _t, job = run_timed(app, 4, "auto")
    assert [r for r in results] == [(10, 40)] * 4
    macro = job.transport.macro
    assert macro.fallbacks.get("checkpoint", 0) > 0
    assert macro.instances_macro > 0  # the unscoped call went macro


def test_verdict_is_latched_per_instance():
    """The first arrival's verdict binds the whole instance -- mixed
    engines inside one collective would deadlock, so a state flip
    while ranks trickle in must not split them."""
    def app(mpi):
        if mpi.rank == 0:
            _armed_injector(mpi.sim)
        out = yield from mpi.allreduce(1, SUM)
        return out, 0.0, mpi.now

    results, _t, job = run_timed(app, 4, "auto")
    assert results == [4] * 4  # no deadlock, correct answer either way
