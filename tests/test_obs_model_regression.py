"""Regression: traced checkpoint phases match the Section V-B model.

The XOR engine's ``ckpt.*`` spans are the ground truth the benchmarks
(Fig 10/12) now report, so this pins them to the analytic cost model
in :mod:`repro.models.cr_model`:

* ``ckpt.checkpoint`` (whole operation) ~= ``checkpoint_time(s, n)``;
* ``ckpt.encode`` (ring-pipelined parity transfer) ~= the model's
  ``(s + s/(n-1))/net_bw`` term;
* ``ckpt.snapshot`` (local memcpy) ~= ``s/mem_bw``.

If someone retunes the transport or the engine and the traced phases
drift away from the model, this fails before the benchmarks start
telling a story that contradicts DESIGN.md.
"""

import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage
from repro.fmi.payload import Payload
from repro.fmi.redundancy import make_scheme
from repro.models.cr_model import checkpoint_time, restart_time
from repro.mpi.runtime import MpiJob
from repro.obs import Tracer
from repro.obs.summary import summarize
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

CKPT_BYTES = 6e9  # the paper's 6 GB/node working set
MEM_BW = SIERRA.node.memory_bw
NET_BW = SIERRA.network.link_bw


def traced_phases(group_size: int, procs_per_node: int = 1):
    sim = Simulator()
    nodes = group_size // procs_per_node
    machine = Machine(sim, SIERRA.with_nodes(nodes), RngRegistry(group_size))
    tracer = Tracer(sim)

    def app(api):
        storage = MemoryStorage(api.node)
        engine = CheckpointEngine(api.world, storage, api.memcpy,
                                  scheme=make_scheme("xor"))
        payload = Payload.synthetic(CKPT_BYTES, seed=api.rank, rep_bytes=64)
        yield from engine.checkpoint([payload], dataset_id=0)

    job = MpiJob(machine, app, nprocs=group_size,
                 procs_per_node=procs_per_node, charge_init=False)
    sim.run(until=job.launch())
    phases = summarize(tracer).checkpoint()
    assert phases["ckpt.checkpoint"]["count"] == group_size
    return phases


@pytest.mark.parametrize("group_size", [4, 8, 16])
def test_traced_phases_match_cr_model(group_size):
    phases = traced_phases(group_size)
    model_total = checkpoint_time(CKPT_BYTES, group_size, MEM_BW, NET_BW)
    model_encode = (CKPT_BYTES + CKPT_BYTES / (group_size - 1)) / NET_BW
    model_snapshot = CKPT_BYTES / MEM_BW

    measured = phases["ckpt.checkpoint"]["max"]
    assert measured == pytest.approx(model_total, rel=0.20)
    assert phases["ckpt.encode"]["max"] == pytest.approx(model_encode, rel=0.25)
    assert phases["ckpt.snapshot"]["max"] == pytest.approx(model_snapshot, rel=0.10)
    # Phase decomposition is consistent: the whole span dominates the
    # parts, and encode dominates the whole (the paper's observation
    # that the ring transfer is the bottleneck).
    assert phases["ckpt.encode"]["max"] < measured
    assert phases["ckpt.encode"]["max"] > 0.5 * measured


def test_traced_restore_matches_restart_model():
    """The ``ckpt.restore`` span (one rank lost its local checkpoint,
    the group rebuilds it through the ring) tracks ``restart_time``."""
    group_size = 8
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(group_size),
                      RngRegistry(100 + group_size))
    tracer = Tracer(sim)

    def app(api):
        storage = MemoryStorage(api.node)
        engine = CheckpointEngine(api.world, storage, api.memcpy,
                                  scheme=make_scheme("xor"))
        payload = Payload.synthetic(CKPT_BYTES, seed=api.rank, rep_bytes=64)
        yield from engine.checkpoint([payload], dataset_id=0)
        if api.rank == 0:
            storage.clear()
        yield from api.barrier()
        _meta, restored = yield from engine.restore()
        assert restored[0] == payload

    job = MpiJob(machine, app, nprocs=group_size, procs_per_node=1,
                 charge_init=False)
    sim.run(until=job.launch())
    phases = summarize(tracer).checkpoint()
    model = restart_time(CKPT_BYTES, group_size, MEM_BW, NET_BW)
    assert phases["ckpt.restore"]["count"] == group_size
    assert phases["ckpt.restore"]["max"] == pytest.approx(model, rel=0.35)
    # The rebuild spans (one replacement, n-1 survivors) sit inside the
    # restore span.
    assert phases["ckpt.rebuild"]["count"] == group_size
    assert phases["ckpt.rebuild"]["max"] <= phases["ckpt.restore"]["max"]
