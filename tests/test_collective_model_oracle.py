"""Two-table pricing against the per-edge oracle: float ``==``.

:mod:`repro.models.collective_model` builds, per call, what a message
of each rank's size costs within a node and between two, and then only
picks per edge; ``tests/collective_model_reference.py`` is the module
as it stood when every edge called ``NetParams.cost``.  Both evaluate
the same expression on the same float, so every model time must be
*equal*, not close -- ``macro_16k``'s pinned ``sim_s`` rests on it.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.collective_model import NetParams, collective_time
from tests import collective_model_reference as oracle

#: 1 at tier-1, 10 under ``--hypothesis-profile=deep`` (``conftest.py``)
_SCALE = max(1, settings.default.max_examples // 100)

ROOTED = ("bcast", "reduce", "gather", "scatter")
#: kinds whose ``sizes`` is one scalar / may also be one value per rank
SCALAR_ONLY = ("bcast", "barrier")
PER_RANK = ("reduce", "allreduce", "gather", "allgather", "scatter")
KINDS = SCALAR_ONLY + PER_RANK + ("alltoall",)

SIERRA_LIKE = NetParams(sw_overhead=0.9e-6, wire_latency=1.3e-6,
                        link_bw=3.2e9, mem_bw=32e9)

nbytes = st.one_of(
    st.integers(0, 1 << 30),
    st.floats(0.0, 1e10, allow_nan=False),
    st.sampled_from([4.0, 8.0, 8, 333e3]),
)
net_params = st.one_of(
    st.just(SIERRA_LIKE),
    st.builds(
        NetParams,
        sw_overhead=st.floats(0.0, 1e-3),
        wire_latency=st.floats(0.0, 1e-3),
        link_bw=st.floats(1e6, 1e11),
        mem_bw=st.floats(1e6, 1e12),
    ),
)


@st.composite
def placements(draw, size):
    """Node id per rank: block placement at a drawn ``procs_per_node``,
    one rank per node, or any assignment at all (ranks of one node need
    not be neighbours)."""
    shape = draw(st.sampled_from(["block", "spread", "any"]))
    if shape == "block":
        ppn = draw(st.sampled_from([1, 2, 3, 16]))
        return tuple(r // ppn for r in range(size))
    if shape == "spread":
        return tuple(draw(st.permutations(range(size))))
    return tuple(draw(st.lists(st.integers(0, max(1, size // 2)),
                               min_size=size, max_size=size)))


@st.composite
def cases(draw):
    kind = draw(st.sampled_from(KINDS))
    size = draw(st.one_of(st.integers(1, 48),
                          st.sampled_from([1, 2, 4, 8, 16, 32])))
    nodes = draw(placements(size))
    if kind == "alltoall" and draw(st.booleans()):
        sizes = draw(st.lists(
            st.lists(nbytes, min_size=size, max_size=size),
            min_size=size, max_size=size))
    elif kind in PER_RANK and draw(st.booleans()):
        sizes = draw(st.lists(nbytes, min_size=size, max_size=size))
    else:
        sizes = draw(nbytes)
    root = draw(st.integers(0, size - 1)) if kind in ROOTED else 0
    return kind, nodes, sizes, root, draw(net_params)


def both(kind, nodes, sizes, net, root=0):
    return (
        collective_time(kind, nodes, sizes, net, root=root),
        oracle.collective_time(kind, nodes, sizes,
                               oracle.NetParams(**asdict(net)), root=root),
    )


@settings(max_examples=300 * _SCALE, deadline=None)
@given(cases())
def test_every_kind_prices_exactly_like_the_per_edge_loop(case):
    kind, nodes, sizes, root, net = case
    got, want = both(kind, nodes, sizes, net, root)
    assert got == want, (kind, nodes, sizes, root, got, want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13, 16, 33, 48])
def test_every_root_of_every_size(kind, size):
    nodes = tuple((r * 7) % 5 for r in range(size))  # scattered, repeating
    sizes = 8.0 if kind in SCALAR_ONLY or kind == "alltoall" else [
        float(64 + 8 * (r % 4)) for r in range(size)
    ]
    for root in range(size if kind in ROOTED else 1):
        got, want = both(kind, nodes, sizes, SIERRA_LIKE, root)
        assert got == want, (kind, size, root)
        assert got > 0.0 or size == 1


@pytest.mark.parametrize("kind, sizes", [("allreduce", 8.0), ("barrier", 4.0)])
def test_4096_ranks_uniform(kind, sizes):
    nodes = tuple(r // 16 for r in range(4096))
    got, want = both(kind, nodes, sizes, SIERRA_LIKE)
    assert got == want
    assert got > 0.0
