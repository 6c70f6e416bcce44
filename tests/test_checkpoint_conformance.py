"""One dataset protocol, two entries: ``rebuild_missing`` against ``restore``.

``CheckpointEngine.restore`` (the coordinated rollback) and
``CheckpointEngine.rebuild_missing`` (the sidecar rebuild of the
message-logging plane) must agree on everything they share: which
dataset the survivors settle on, what bytes a rebuilt member gets back,
and which loss patterns are beyond the scheme.  They must differ in
exactly one thing: a survivor of ``rebuild_missing`` is read-only.

The second half holds both storage adapters to one protocol.

Recorded on 4e7c35e (before the stack was folded into one survey and
one rebuild body), so the refactor is held to its predecessor -- all of
it but the ``peek`` / ``peek_meta`` / ``nbytes`` / ``clone_from`` lines,
which are the protocol methods that commit did not have yet.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.cluster import Machine
from repro.cluster.filesystem import FileLostError
from repro.cluster.spec import SIERRA
from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage, TmpfsStorage
from repro.fmi.errors import UnrecoverableFailure
from repro.fmi.payload import Payload
from repro.fmi.redundancy import SCHEMES, make_scheme
from repro.mpi.runtime import MpiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry


def run_group(app, n, make_storage=MemoryStorage):
    """Drive ``app(api, storage)`` on ``n`` ranks, one per node."""
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(n), RngRegistry(0))

    def wrapped(api):
        storage = make_storage(api.node)
        result = yield from app(api, storage)
        return result

    job = MpiJob(machine, wrapped, n, procs_per_node=1, charge_init=False)
    return machine, sim.run(until=job.launch())


def make_payloads(rank, dataset):
    rng = np.random.default_rng(1000 * dataset + rank)
    return [
        Payload.wrap(rng.integers(0, 256, 90 + 11 * rank + 7 * k, dtype=np.uint8))
        for k in range(2)
    ]


def _held(engine, storage):
    """Everything a member holds: completed ids + every blob's bytes
    (read through the public, charged ``load``)."""
    ids = engine.completed_ids()
    blobs = {}
    for ds in ids:
        for key in (f"ckpt@{ds}", engine.scheme.redundancy_key(ds)):
            if key is not None:
                blob = yield from storage.load(key)
                blobs[key] = (blob.nbytes, blob.tobytes())
    return ids, blobs


def _sidecar_vs_restore(scheme, n, missing):
    """Checkpoint two datasets, lose ``missing``, rebuild through a
    sidecar ensemble (fresh engines over the live storages), then lose
    the same members again and ``restore``.  Per rank: what each entry
    returned and what the member held before / after the sidecar."""

    def app(api, storage):
        def engine():
            return CheckpointEngine(api.world, storage, api.memcpy,
                                    scheme=make_scheme(scheme))

        app_engine = engine()
        for ds in (1, 2):
            yield from app_engine.checkpoint(make_payloads(api.rank, ds), ds)
        lost = api.rank in missing
        if lost:
            storage.clear()
        before = yield from _held(app_engine, storage)
        try:
            rebuilt = yield from engine().rebuild_missing(list(missing))
        except UnrecoverableFailure:
            return "unrecoverable"
        after = yield from _held(app_engine, storage)
        if lost:
            storage.clear()
        meta, payloads = yield from engine().restore()
        if lost:
            rebuilt = (rebuilt[0].to_dict(), rebuilt[1])
        return rebuilt, (meta.to_dict(), payloads), before, after

    _machine, results = run_group(app, n)
    return results


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_rebuild_missing_agrees_with_restore(scheme, n):
    can_repair = make_scheme(scheme).can_repair
    for k in range(1, n):
        for missing in combinations(range(n), k):
            results = _sidecar_vs_restore(scheme, n, missing)
            where = f"{scheme} n={n} missing={missing}"
            if not can_repair(list(missing), n):
                assert results == ["unrecoverable"] * n, where
                continue
            for rank, (rebuilt, restored, before, after) in enumerate(results):
                assert restored[0]["dataset_id"] == 2, where
                assert restored[1] == make_payloads(rank, 2), where
                if rank in missing:
                    assert rebuilt == restored, where
                    assert before == ([], {}), where
                    assert after[0] == [2], where
                else:
                    # a survivor learns the dataset and is left alone
                    assert rebuilt == 2, where
                    assert before[0] == [1, 2], where
                    assert after == before, where


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_rebuild_missing_cold_start_and_no_common_dataset(scheme):
    """Nobody checkpointed: ``None`` (replay from scratch).  Survivors
    that share no complete dataset: unrecoverable, whatever the scheme
    could repair."""

    def app(api, storage):
        engine = CheckpointEngine(api.world, storage, api.memcpy,
                                  scheme=make_scheme(scheme))
        cold = yield from engine.rebuild_missing([0])
        yield from engine.checkpoint(make_payloads(api.rank, 1), 1)
        if api.rank != 1:
            storage.clear()
        try:
            # member 2 "survived" with nothing; member 1 holds dataset 1
            yield from engine.rebuild_missing([0])
        except UnrecoverableFailure:
            return cold, "unrecoverable"
        return cold, "rebuilt"

    _machine, results = run_group(app, 3)
    assert results == [(None, "unrecoverable")] * 3


# ------------------------------------------------------- storage protocol
def _tmpfs(node):
    return TmpfsStorage(node, prefix="scr/r0")


@pytest.mark.parametrize("make_storage", [MemoryStorage, _tmpfs])
def test_storage_protocol_round_trip(make_storage):
    blob = Payload(np.arange(200, dtype=np.uint8), nbytes=4096.0)
    meta = {"group": {"0": {"dataset_id": 3}}}

    def app(api, storage):
        engine = CheckpointEngine(api.world, storage, api.memcpy)
        assert engine.completed_ids() == []
        t0 = api.now
        yield from storage.store("ckpt@3", blob)
        yield from storage.store_meta("meta@3", meta)
        yield from storage.store_meta("completed", {"ids": [3]})
        assert api.now > t0  # stores are charged ...
        t0 = api.now
        assert engine.completed_ids() == [3]
        assert storage.peek("ckpt@3") == blob
        assert storage.peek_meta("meta@3") == meta
        assert storage.peek("ckpt@9") is None
        assert storage.peek_meta("meta@9") is None
        assert api.now == t0  # ... peeks are free
        loaded = yield from storage.load("ckpt@3")
        loaded_meta = yield from storage.load_meta("meta@3")
        assert loaded == blob and loaded is not blob
        assert loaded_meta == meta
        # what comes back is a copy: scribbling on it changes nothing
        loaded.data[:] = 0
        loaded_meta["group"] = None
        again = yield from storage.load("ckpt@3")
        again_meta = yield from storage.load_meta("meta@3")
        assert again == blob and again_meta == meta
        storage.unstore("ckpt@3")
        storage.unstore_meta("meta@3")
        assert storage.peek("ckpt@3") is None
        assert storage.peek_meta("meta@3") is None
        with pytest.raises((KeyError, FileLostError)):
            yield from storage.load("ckpt@3")
        yield from storage.store("ckpt@4", blob)
        storage.clear()
        assert engine.completed_ids() == []
        with pytest.raises((KeyError, FileLostError)):
            yield from storage.load("ckpt@4")
        return "ok"

    _machine, results = run_group(app, 1, make_storage)
    assert results == ["ok"]


def test_destroyed_node_tmpfs_reads_as_empty():
    """A tmpfs dies with its node: the replacement's engine sees no
    completed dataset there (and so reports as a missing member)."""
    held = {}

    def app(api, storage):
        engine = CheckpointEngine(api.world, storage, api.memcpy)
        yield from engine.checkpoint(make_payloads(api.rank, 1), 1)
        held[api.rank] = engine
        return engine.completed_ids()

    machine, results = run_group(app, 2, _tmpfs)
    assert results == [[1], [1]]
    machine.nodes[0].tmpfs.destroy()
    assert held[0].completed_ids() == []
    assert held[0].storage.peek("ckpt@1") is None
    assert held[1].completed_ids() == [1]
    assert held[1].storage.peek("ckpt@1") is not None


def test_memory_storage_clone_is_whole_deep_and_sized():
    """The standby's clone of its lead: everything, nothing shared,
    nothing of the clone's own past left over."""

    def app(api, lead):
        for ds in (1, 2):
            yield from lead.store(f"ckpt@{ds}", Payload.synthetic(1e6 * ds, seed=ds))
            yield from lead.store_meta(f"meta@{ds}", {"group": {"0": ds}})
        standby = MemoryStorage(api.node)
        yield from standby.store("ckpt@0", Payload.synthetic(64.0))
        assert lead.nbytes == 3e6
        standby.clone_from(lead)
        assert standby.nbytes == 3e6 and standby.peek("ckpt@0") is None
        for ds in (1, 2):
            assert standby.peek(f"ckpt@{ds}") == lead.peek(f"ckpt@{ds}")
            assert standby.peek(f"ckpt@{ds}") is not lead.peek(f"ckpt@{ds}")
            assert standby.peek_meta(f"meta@{ds}") == {"group": {"0": ds}}
        standby.peek("ckpt@1").data[:] = 0
        standby.peek_meta("meta@1")["group"] = None
        standby.clear()
        assert lead.peek("ckpt@1") == Payload.synthetic(1e6, seed=1)
        assert lead.peek_meta("meta@1") == {"group": {"0": 1}}
        return "ok"

    _machine, results = run_group(app, 1)
    assert results == ["ok"]
