"""Hypothesis property tests on collectives."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.mpi.ops import SUM
from repro.mpi.runtime import MpiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry
from tests.collective_engine import pinned_engine


@pytest.fixture(autouse=True)
def _hop_engine():
    """These tests assert hop-level properties (fabric message counts,
    per-message algebra), so they pin the oracle engine."""
    with pinned_engine("hops"):
        yield


def run_app(app, nprocs, ppn=1, num_nodes=None, seed=0):
    sim = Simulator()
    machine = Machine(
        sim, SIERRA.with_nodes(num_nodes or max(2, nprocs // ppn)), RngRegistry(seed)
    )
    job = MpiJob(machine, app, nprocs, procs_per_node=ppn, charge_init=False)
    results = sim.run(until=job.launch())
    return sim, machine, results


# ----------------------------------------------------- property: semantics
@settings(max_examples=15, deadline=None)
@given(
    nprocs=st.integers(2, 9),
    values=st.lists(st.integers(-100, 100), min_size=9, max_size=9),
    root=st.integers(0, 8),
)
def test_property_reduce_equals_functools(nprocs, values, root):
    root = root % nprocs
    vals = values[:nprocs]

    def app(mpi):
        out = yield from mpi.reduce(vals[mpi.rank], SUM, root=root)
        return out

    _s, _m, results = run_app(app, nprocs)
    assert results[root] == functools.reduce(lambda a, b: a + b, vals)
    assert all(r is None for i, r in enumerate(results) if i != root)


@settings(max_examples=15, deadline=None)
@given(
    nprocs=st.integers(1, 9),
    values=st.lists(st.integers(-1000, 1000), min_size=9, max_size=9),
)
def test_property_allgather_orders_by_rank(nprocs, values):
    vals = values[:nprocs]

    def app(mpi):
        out = yield from mpi.allgather(vals[mpi.rank])
        return out

    _s, _m, results = run_app(app, nprocs)
    assert all(r == vals for r in results)


@settings(max_examples=10, deadline=None)
@given(
    nprocs=st.integers(2, 8),
    perm_seed=st.integers(0, 2**31),
)
def test_property_alltoall_is_transpose(nprocs, perm_seed):
    rng = np.random.default_rng(perm_seed)
    matrix = rng.integers(-100, 100, size=(nprocs, nprocs))

    def app(mpi):
        out = yield from mpi.alltoall(list(matrix[mpi.rank]))
        return out

    _s, _m, results = run_app(app, nprocs)
    for dst, row in enumerate(results):
        assert list(row) == list(matrix[:, dst])


@settings(max_examples=10, deadline=None)
@given(nprocs=st.integers(2, 9), root=st.integers(0, 8),
       payload=st.text(max_size=30))
def test_property_bcast_delivers_root_value(nprocs, root, payload):
    root = root % nprocs

    def app(mpi):
        v = payload if mpi.rank == root else None
        out = yield from mpi.bcast(v, root=root)
        return out

    _s, _m, results = run_app(app, nprocs)
    assert results == [payload] * nprocs
