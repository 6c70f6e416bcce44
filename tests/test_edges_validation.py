"""Edge cases and validation paths across the stack."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.config import FmiConfig as Cfg
from repro.fmi.payload import Payload
from repro.mpi.communicator import Communicator
from repro.mpi.runtime import MpiJob
from repro.obs import MetricsRegistry, Tracer
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def make(num_nodes=4, seed=0):
    sim = Simulator()
    return sim, Machine(sim, SIERRA.with_nodes(num_nodes), RngRegistry(seed))


# ------------------------------------------------------------------ configs
def test_fmi_config_validation():
    with pytest.raises(ValueError):
        Cfg(interval=0)
    with pytest.raises(ValueError):
        Cfg(mtbf_seconds=0.0)
    with pytest.raises(ValueError):
        Cfg(xor_group_size=1)
    with pytest.raises(ValueError):
        Cfg(spare_nodes=-1)
    with pytest.raises(ValueError):
        Cfg(level2_every=0)
    # NaN and infinities that used to fail only mid-run
    nan = float("nan")
    for bad in (dict(mtbf_seconds=nan), dict(mtbf_seconds=float("inf"))):
        with pytest.raises(ValueError):
            Cfg(**bad)
    # Integer knobs: a fraction or NaN used to run silently, fail mid-run
    # on a slice, or be refused with a misleading message.
    for bad in (dict(interval=nan), dict(interval=2.5),
                dict(level2_every=nan), dict(spare_nodes=1.5),
                dict(recovery="replicated", replication_degree=nan),
                dict(xor_group_size=nan), dict(xor_group_size=4.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            Cfg(**bad)
    # NumPy integers are integers.
    Cfg(interval=np.int64(2), spare_nodes=np.int32(0),
        xor_group_size=np.int64(4), level2_every=np.uint8(1))


def test_fmi_job_validation():
    sim, machine = make()
    with pytest.raises(ValueError):
        FmiJob(machine, lambda f: iter(()), num_ranks=5, procs_per_node=2)
    with pytest.raises(ValueError):
        FmiJob(machine, lambda f: iter(()), num_ranks=0)


def test_fmi_job_double_launch_rejected():
    sim, machine = make(6)

    def app(fmi):
        yield from fmi.init()
        yield from fmi.finalize()

    job = FmiJob(machine, app, num_ranks=2,
                 config=FmiConfig(xor_group_size=2, spare_nodes=0,
                                  checkpoint_enabled=False))
    job.launch()
    with pytest.raises(RuntimeError):
        job.launch()
    sim.run(until=job.done)


# ------------------------------------------------------------- communicator
def test_communicator_must_contain_self():
    sim, machine = make()

    def app(mpi):
        with pytest.raises(ValueError):
            Communicator(mpi, 99, [r for r in range(mpi.size) if r != mpi.rank])
        return True
        yield  # pragma: no cover

    job = MpiJob(machine, app, nprocs=2, charge_init=False)
    assert all(sim.run(until=job.launch()))


def test_send_to_out_of_range_rank():
    sim, machine = make()

    def app(mpi):
        with pytest.raises(ValueError):
            mpi.send(mpi.size + 3, "x")
        with pytest.raises(ValueError):
            mpi.send(-1, "x")
        return True
        yield  # pragma: no cover

    job = MpiJob(machine, app, nprocs=2, charge_init=False)
    assert all(sim.run(until=job.launch()))


def test_scatter_requires_values_at_root():
    sim, machine = make()

    def app(mpi):
        if mpi.rank == 0:
            try:
                yield from mpi.scatter([1])  # wrong length
            except ValueError:
                # unblock rank 1 after the failed attempt
                yield mpi.send(1, "abort", tag=77)
                return "caught"
        else:
            env = yield from mpi.recv(0, tag=77)
            return env

    job = MpiJob(machine, app, nprocs=2, charge_init=False)
    results = sim.run(until=job.launch())
    assert results[0] == "caught"


# ----------------------------------------------------------------- payloads
def test_payload_type_checks():
    with pytest.raises(TypeError):
        Payload("not-an-array")
    with pytest.raises(TypeError):
        Payload.wrap(123)


def test_loop_rejects_non_buffer_ckpts():
    sim, machine = make(6)

    def app(fmi):
        yield from fmi.init()
        with pytest.raises(TypeError):
            yield from fmi.loop(["not a buffer"])
        yield from fmi.finalize()
        return True

    job = FmiJob(machine, app, num_ranks=2,
                 config=FmiConfig(interval=1, xor_group_size=2, spare_nodes=0))
    assert all(sim.run(until=job.launch()))


# ----------------------------------------------------------- api counters
def test_bytes_sent_accounting():
    sim, machine = make()
    Tracer(sim)
    metrics = MetricsRegistry(sim)  # counts each message off its record

    def app(mpi):
        if mpi.rank == 0:
            yield mpi.send(1, np.zeros(125, dtype=np.float64))  # 1000 B
            yield mpi.send(1, "x", nbytes=24.0)
            return None
        yield from mpi.recv(0)
        yield from mpi.recv(0)
        return None

    sim.run(until=MpiJob(machine, app, nprocs=2, charge_init=False).launch())
    assert metrics.sum_counters("net.msgs_sent") == 2
    assert metrics.sum_counters("net.bytes_sent") == pytest.approx(1024.0)


def test_stale_epoch_counter_after_recovery():
    """A survivor's post-recovery context must report dropped stale
    traffic if any pre-failure message straggles in."""
    sim, machine = make(10, seed=3)

    def app(fmi):
        u = np.zeros(2)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= 6:
                break
            # Cross-traffic every iteration, so some messages are in
            # flight when the crash lands.
            peer = (fmi.rank + 1) % fmi.size
            left = (fmi.rank - 1) % fmi.size
            yield from fmi.sendrecv(peer, float(n), source=left, nbytes=2e6)
            yield fmi.elapse(0.3)
        yield from fmi.finalize()
        return fmi.fmi_job.transport.dropped_stale

    job = FmiJob(machine, app, num_ranks=16, procs_per_node=2,
                 config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=1))
    done = job.launch()

    def killer():
        yield sim.timeout(1.2)
        machine.node(0).crash("stale-test")

    sim.spawn(killer())
    results = sim.run(until=done)
    # The run completed correctly whether or not stragglers existed;
    # the counter is non-negative and consistent across ranks' views.
    assert all(r >= 0 for r in results)
