"""The whole-round fold of a macro allreduce against the general replay.

``repro.mpi.macro._allreduce_results`` looks at its inputs once: when
the size is a power of two, every rank passed the same
:mod:`repro.mpi.ops` operator and every value is an exact
``int``/``float``/``bool``, a round of recursive doubling is one
``map`` of the operator's scalar function; anything else is folded
rank by rank through the operator and ``snapshot``.  Both walk the
same schedule with the same operands in the same order, so the results
must agree to the bit and to the class -- and inputs that need a
decision per element must never take the mapped lane.  Once folded,
the instance lets go of the inputs, and the bulk completion of each
rank's join event and result as it resumes the rank.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.fmi.payload import Payload
from repro.mpi import macro, ops
from repro.mpi.macro import _allreduce_results, _round_fn
from repro.mpi.runtime import MpiJob
from repro.simt import Event, Simulator
from repro.simt.rng import RngRegistry

OPS = [ops.SUM, ops.PROD, ops.MAX, ops.MIN, ops.LOR, ops.LAND]

ints = st.one_of(st.integers(-5, 5), st.integers(-(1 << 70), 1 << 70),
                 st.sampled_from([(1 << 63) + 1, -(1 << 64), 0, 1]))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan"),
                     1.5, 1e308]),
)
plain = st.one_of(ints, floats, st.booleans())


def value_lists(size):
    return st.one_of(
        st.lists(ints, min_size=size, max_size=size),
        st.lists(floats, min_size=size, max_size=size),
        st.lists(st.booleans(), min_size=size, max_size=size),
        st.lists(plain, min_size=size, max_size=size),
    )


@st.composite
def folds(draw):
    # half the draws at the sizes where the mapped lane runs
    size = draw(st.one_of(st.sampled_from([2, 4, 8, 16, 32, 64]),
                          st.integers(2, 70)))
    return draw(st.sampled_from(OPS)), draw(value_lists(size))


def outcome(vals, op_list):
    """Per-rank ``(class, repr)`` -- ``repr`` tells ``-0.0`` from ``0.0``
    and equates NaNs -- or the exception both lanes must then raise."""
    try:
        results = _allreduce_results(vals, op_list, len(vals))
    except OverflowError as exc:  # a huge int meeting a float
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in results]


@settings(max_examples=400, deadline=None)
@given(folds())
def test_whole_round_fold_equals_the_per_element_replay(case):
    op, vals = case
    entered = []

    def per_rank_equivalent(_rank):
        # a distinct object per rank that computes what ``op`` does:
        # the lane must decline, and the general loop must call it
        def same_op(a, b):
            entered.append(1)
            return op(a, b)
        return same_op

    shared = [op] * len(vals)
    assert _round_fn(vals, shared) is op.scalar_fn
    general = [per_rank_equivalent(r) for r in range(len(vals))]
    assert _round_fn(vals, general) is None
    assert outcome(vals, shared) == outcome(vals, general)
    assert entered


@pytest.mark.parametrize("size", [2, 3, 5, 8, 12, 33, 64, 70])
@pytest.mark.parametrize("op", OPS)
def test_every_op_at_fixed_sizes(op, size):
    vals = [((r * 37) % 11 - 5) * (0.5 if r % 3 else 1) for r in range(size)]
    assert _round_fn(vals, [op] * size) is op.scalar_fn
    want = outcome(vals, [lambda a, b: op(a, b)] * size)
    assert outcome(vals, [op] * size) == want
    # every rank holds the reduction of all values
    assert len({r for _cls, r in want}) == 1


@pytest.mark.parametrize("size", [2, 4, 8, 64, 3, 6, 12, 70])
def test_the_mapped_lane_runs_at_powers_of_two_only(size):
    entered = []

    def counting_sum(a, b):
        entered.append(1)
        return a + b

    counting_sum.scalar_fn = ops.SUM.scalar_fn
    vals = list(range(size))
    assert _round_fn(vals, [counting_sum] * size) is ops.SUM.scalar_fn
    got = _allreduce_results(vals, [counting_sum] * size, size)
    assert got == [sum(vals)] * size and got is not vals
    assert bool(entered) == bool(size & (size - 1))


@pytest.mark.parametrize("odd_one", [
    np.arange(3.0),
    np.float64(2.0),
    np.int64(2),
    Payload.wrap(np.arange(4, dtype=np.uint8)),
    "text",
    None,
], ids=["ndarray", "np.float64", "np.int64", "Payload", "str", "None"])
def test_one_value_that_is_not_a_plain_scalar_declines(odd_one):
    for position in (0, 3, 6):
        vals = [1, 2.0, True, 4, 5, 6.5, 7]
        vals[position] = odd_one
        assert _round_fn(vals, [ops.SUM] * 7) is None


def test_user_callables_and_mixed_ops_decline():
    vals = [1, 2, 3, 4]
    user = lambda a, b: a + b  # noqa: E731
    assert _round_fn(vals, [user] * 4) is None
    assert _round_fn(vals, [ops.SUM, ops.SUM, ops.MAX, ops.SUM]) is None
    assert _round_fn(vals, [ops.MAX, ops.SUM, ops.SUM, ops.SUM]) is None
    assert _round_fn(vals, [ops.SUM] * 4) is ops.SUM.scalar_fn
    # subclasses are not the exact classes snapshot() passes through
    class Celsius(float):
        pass
    assert _round_fn([1.0, Celsius(2.0)], [ops.SUM] * 2) is None


def test_mixed_ops_fold_rank_by_rank_as_before():
    # rank r's own operator folds rank r's accumulator, so with
    # different operators in one instance the ranks disagree -- as
    # they would on the hop engine (values recorded before the lane
    # existed, one power-of-two size and one with a pre-fold)
    SUM, MAX, MIN, PROD = ops.SUM, ops.MAX, ops.MIN, ops.PROD
    got = _allreduce_results([1, 2, 3, 4], [SUM, MAX, SUM, MAX], 4)
    assert got == [10, 4, 10, 4]
    got = _allreduce_results([1, 2, 3, 4, 5, 6, 7],
                             [SUM, MAX, SUM, MAX, PROD, MIN, SUM], 7)
    assert got == [5, 5, 12, 12, 4, 4, 16]


@pytest.mark.parametrize("size", [4, 6, 7])
def test_ndarray_allreduce_gives_every_rank_its_own_array(size):
    def app(api):
        result = yield from api.allreduce(np.full(3, float(api.rank)))
        return result

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(size), RngRegistry(0))
    job = MpiJob(machine, app, size, charge_init=False)
    results = sim.run(until=job.launch())
    assert job.transport.macro.instances_macro == 1
    total = float(sum(range(size)))
    assert len({id(r) for r in results}) == size
    for r, mine in enumerate(results):
        mine += 100.0 * (r + 1)  # in place
        for other in results[r + 1:]:
            assert np.array_equal(other, np.full(3, total))


def test_the_bulk_lets_go_of_each_rank_it_resumes(monkeypatch):
    # The bulk resumes the ranks inline in rank order, each running on
    # to its next operation before the next rank is resumed.  When the
    # last one runs, nothing may still hold an earlier rank's join
    # event, any rank's inputs, or a result its rank has dropped.
    size = 8
    joins, inputs, results, held = [], [], [], []

    class Watched(Event):
        __slots__ = ("__weakref__",)

        def __init__(self, sim):
            super().__init__(sim)
            joins.append(weakref.ref(self))

    monkeypatch.setattr(macro, "Event", Watched)

    def contribution(rank):
        value = np.full(3, float(rank))
        inputs.append(weakref.ref(value))
        return value

    def app(api):
        result = yield from api.allreduce(contribution(api.rank))
        results.append(weakref.ref(result))
        del result
        if api.rank == size - 1:
            held.append((
                sum(ref() is not None for ref in joins),
                sum(ref() is not None for ref in inputs),
                sum(ref() is not None for ref in results),
            ))
        yield api.elapse(1.0)

    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(size), RngRegistry(0))
    job = MpiJob(machine, app, size, charge_init=False)
    sim.run(until=job.launch())
    assert job.transport.macro.instances_macro == 1
    assert len(joins) == len(inputs) == len(results) == size
    # what is left is the last rank's own join event, still being
    # dispatched, and the result it carries
    assert held == [(1, 0, 1)]
