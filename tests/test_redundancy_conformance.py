"""Conformance suite for the pluggable redundancy schemes.

Every scheme must satisfy the same contract: checkpoint -> lose a
member -> restore yields *bit-identical* state (for every loss pattern
the scheme claims to repair), losses beyond the scheme's protection
raise :class:`UnrecoverableFailure`, and the measured phase costs
match the scheme's analytic model in :mod:`repro.models.cr_model`.
"""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage
from repro.fmi.errors import UnrecoverableFailure
from repro.fmi.payload import Payload
from repro.fmi.redundancy import make_scheme
from repro.models.cr_model import checkpoint_time, restart_time, storage_overhead
from repro.mpi.runtime import MpiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

SCHEMES = ["xor", "partner", "single"]


def run_group(app, n, scheme, seed=0):
    """Drive one redundancy group (one member per node) through the
    simulated fabric."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(n), RngRegistry(seed))
    storages = {}

    def wrapped(api):
        storage = MemoryStorage(api.node)
        storages[api.rank] = storage
        engine = CheckpointEngine(api.world, storage, api.memcpy,
                                  scheme=make_scheme(scheme))
        result = yield from app(api, engine, storage)
        return result

    job = MpiJob(machine, wrapped, n, procs_per_node=1, charge_init=False)
    results = sim.run(until=job.launch())
    return sim, results, storages


def make_payloads(rank, nbufs=2, size=300):
    rng = np.random.default_rng(1000 + rank)
    return [
        Payload.wrap(rng.integers(0, 256, size + 7 * k, dtype=np.uint8))
        for k in range(nbufs)
    ]


# --------------------------------------------------------------- round trips
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("n", [2, 4])
def test_clean_roundtrip(scheme, n):
    def app(api, engine, storage):
        payloads = make_payloads(api.rank)
        meta = yield from engine.checkpoint(payloads, dataset_id=7)
        assert meta.dataset_id == 7
        meta2, restored = yield from engine.restore()
        assert meta2.dataset_id == 7
        return restored == payloads

    _sim, results, _ = run_group(app, n, scheme)
    assert results == [True] * n


@pytest.mark.parametrize("scheme", ["xor", "partner"])
@pytest.mark.parametrize("n,f", [(2, 0), (2, 1), (4, 0), (4, 2), (8, 5)])
def test_rebuild_single_lost_member(scheme, n, f):
    saved = {}

    def app(api, engine, storage):
        payloads = make_payloads(api.rank, nbufs=3)
        saved[api.rank] = [p.copy() for p in payloads]
        yield from engine.checkpoint(payloads, dataset_id=3)
        if api.rank == f:
            storage.clear()  # simulate the replacement's empty memory
        meta, restored = yield from engine.restore()
        return (meta.dataset_id, restored)

    _sim, results, _ = run_group(app, n, scheme)
    for rank, (ds, restored) in enumerate(results):
        assert ds == 3
        assert restored == saved[rank], f"rank {rank} data mismatch"


def test_partner_rebuilds_two_nonadjacent_losses():
    # XOR's hard limit is one loss per group; partner only requires the
    # copy-holders to survive, so {0, 2} of a 4-group is repairable.
    lost = {0, 2}
    saved = {}

    def app(api, engine, storage):
        payloads = make_payloads(api.rank)
        saved[api.rank] = [p.copy() for p in payloads]
        yield from engine.checkpoint(payloads, dataset_id=1)
        if api.rank in lost:
            storage.clear()
        _meta, restored = yield from engine.restore()
        return restored

    _sim, results, _ = run_group(app, 4, "partner")
    for rank, restored in enumerate(results):
        assert restored == saved[rank], f"rank {rank} data mismatch"


@pytest.mark.parametrize(
    "scheme,lost",
    [
        ("xor", {0, 1}),      # two losses exceed XOR parity
        ("partner", {1, 2}),  # adjacent losses take the copy down too
        ("single", {2}),      # any loss: nothing replicated anywhere
    ],
)
def test_beyond_repair_raises(scheme, lost):
    def app(api, engine, storage):
        yield from engine.checkpoint(make_payloads(api.rank), dataset_id=1)
        if api.rank in lost:
            storage.clear()
        try:
            yield from engine.restore()
        except UnrecoverableFailure:
            return "unrecoverable"
        return "recovered"

    _sim, results, _ = run_group(app, 4, scheme)
    assert results == ["unrecoverable"] * 4


# ----------------------------------------------------------- storage overhead
@pytest.mark.parametrize("scheme", SCHEMES)
def test_storage_overhead_matches_model(scheme):
    n = 4

    def app(api, engine, storage):
        payloads = [Payload.wrap(np.zeros(15 * n, dtype=np.uint8))]
        yield from engine.checkpoint(payloads, dataset_id=1)
        return None
        yield  # pragma: no cover

    _sim, _results, storages = run_group(app, n, scheme)
    st = storages[0]
    blob = st.peek("ckpt@1")
    redundancy = make_scheme(scheme).redundancy_key(1)
    expected = storage_overhead(scheme, n)
    if expected == 0.0:
        # nothing but the blob is stored
        assert redundancy is None and st.nbytes == blob.nbytes
    else:
        measured = st.peek(redundancy).data.nbytes / blob.data.nbytes
        assert measured == pytest.approx(expected, rel=1e-6)


# ----------------------------------------------------------------- cost models
def _bandwidths():
    spec = SIERRA
    return spec.node.memory_bw, spec.network.link_bw


@pytest.mark.parametrize("scheme", SCHEMES)
def test_checkpoint_cost_matches_model(scheme):
    s = 64e6
    n = 4
    durations = {}

    def app(api, engine, storage):
        payloads = [Payload.synthetic(s, seed=api.rank, rep_bytes=120)]
        t0 = api.now
        yield from engine.checkpoint(payloads, dataset_id=1)
        durations[api.rank] = api.now - t0
        return True

    _sim, results, _ = run_group(app, n, scheme)
    assert results == [True] * n
    mem_bw, net_bw = _bandwidths()
    model = checkpoint_time(s, n, mem_bw, net_bw, scheme=scheme)
    assert max(durations.values()) == pytest.approx(model, rel=0.20)


@pytest.mark.parametrize("scheme", ["xor", "partner"])
def test_restore_cost_matches_model(scheme):
    s = 64e6
    n = 4
    f = 1
    durations = {}

    def app(api, engine, storage):
        payloads = [Payload.synthetic(s, seed=api.rank, rep_bytes=120)]
        yield from engine.checkpoint(payloads, dataset_id=1)
        if api.rank == f:
            storage.clear()
        t0 = api.now
        _meta, restored = yield from engine.restore()
        durations[api.rank] = api.now - t0
        return restored == payloads

    _sim, results, _ = run_group(app, n, scheme)
    assert results == [True] * n
    mem_bw, net_bw = _bandwidths()
    model = restart_time(s, n, mem_bw, net_bw, scheme=scheme)
    assert durations[f] == pytest.approx(model, rel=0.35)


def test_partner_checkpoint_cheaper_than_xor_and_single_cheapest():
    s = 64e6
    n = 4
    measured = {}
    for scheme in SCHEMES:
        durations = {}

        def app(api, engine, storage):
            payloads = [Payload.synthetic(s, seed=api.rank, rep_bytes=120)]
            t0 = api.now
            yield from engine.checkpoint(payloads, dataset_id=1)
            durations[api.rank] = api.now - t0
            return True

        run_group(app, n, scheme)
        measured[scheme] = max(durations.values())
    assert measured["single"] < measured["partner"] < measured["xor"]


# --------------------------------------------------------------- end to end
def _fmi_app(num_loops, work=0.5):
    def app(fmi):
        u = np.zeros(6, dtype=np.float64)
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([u])
            if n >= num_loops:
                break
            yield fmi.elapse(work)
            u[0] = n + 1.0
            u[1] = yield from fmi.allreduce(float(n))
        yield from fmi.finalize()
        return u.copy()

    return app


def test_fmi_job_with_partner_survives_node_crash():
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(5))
    job = FmiJob(
        machine, _fmi_app(6), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=2,
                         redundancy="partner"),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(2.5)
        machine.fail_nodes([3], cause="partner-crash")

    sim.spawn(killer())
    results = sim.run(until=done)
    assert job.recovery_count >= 1
    assert job.restores_done > 0
    for u in results:
        assert u[0] == 6.0


def test_fmi_job_single_plus_level2_recovers_from_pfs():
    # SINGLE cannot repair any lost member at level 1, so a node crash
    # must fall back to the level-2 (PFS) tier -- SCR's LOCAL+PFS.
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(12), RngRegistry(7))
    job = FmiJob(
        machine, _fmi_app(6), num_ranks=16, procs_per_node=2,
        config=FmiConfig(interval=1, xor_group_size=4, spare_nodes=2,
                         redundancy="single", level2_every=1),
    )
    done = job.launch()

    def killer():
        yield sim.timeout(2.5)
        machine.fail_nodes([2], cause="single-crash")

    sim.spawn(killer())
    results = sim.run(until=done)
    assert job.recovery_count >= 1
    assert job.level2_restores > 0
    for u in results:
        assert u[0] == 6.0


# ----------------------------------------------------------------- validation
def test_make_scheme_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown redundancy scheme"):
        make_scheme("raid6")


def test_config_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown redundancy scheme"):
        FmiConfig(redundancy="raid6")
