"""One set of collective kinds, one dispatch point.

The collective stack has three engines' worth of tables -- the
``*_hops`` oracle generators, ``macro._FINISH`` (result replay) and
``collective_model._KINDS`` (pricing) -- and one place that chooses
between them per call: the ``Communicator`` methods.  A kind present in
one table only is code no application can reach (or one that breaks the
first time the other engine is selected), so the four sets must be the
same set.
"""

import inspect

import pytest

from repro.cluster import Machine
from repro.cluster.spec import SIERRA
from repro.models import collective_model
from repro.mpi import collectives, macro
from repro.mpi.communicator import Communicator
from repro.mpi.runtime import MpiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry
from tests.collective_engine import pinned_engine

#: everything public on a Communicator that is *not* a collective kind
NOT_A_KIND = {"send_async", "post_recv", "recv", "sendrecv", "dup", "split"}


def _functions(module):
    return {
        name for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
    }


def _communicator_kinds():
    return {
        name for name, fn in vars(Communicator).items()
        if inspect.isfunction(fn) and not name.startswith("_")
    } - NOT_A_KIND


def _hop_kinds():
    return {
        name[:-len("_hops")] for name in _functions(collectives)
        if name.endswith("_hops")
    }


def test_every_engine_knows_the_same_kinds():
    dispatch = _communicator_kinds()
    assert _hop_kinds() == dispatch
    assert set(macro._FINISH) == dispatch
    assert set(collective_model._KINDS) == dispatch
    assert len(dispatch) == 8


def test_collectives_module_holds_only_what_only_it_can():
    allowed = {kind + "_hops" for kind in _communicator_kinds()} | {
        "set_collective_mode", "_macro_instance",
    }
    assert _functions(collectives) == allowed


def test_dispatch_is_a_plain_call_not_a_forwarding_generator():
    for kind in _communicator_kinds():
        assert not inspect.isgeneratorfunction(getattr(Communicator, kind)), kind


# -- argument validation lives at the dispatch point: same error, any engine


def _bad_scatter(mpi):
    if mpi.rank == 0:  # only the root's list is checked
        yield from mpi.scatter([0] * (mpi.size + 1), root=0)


def _scatter_without_values(mpi):
    if mpi.rank == 0:
        yield from mpi.scatter(None, root=0)


def _bad_alltoall(mpi):
    yield from mpi.alltoall([0] * (mpi.size - 1))


def _errors(call, mode):
    def app(mpi):
        try:
            yield from call(mpi)
        except ValueError as exc:
            return str(exc)
        return None

    with pinned_engine(mode):
        sim = Simulator()
        machine = Machine(sim, SIERRA.with_nodes(4), RngRegistry(0))
        job = MpiJob(machine, app, 4, procs_per_node=1, charge_init=False)
        return sim.run(until=job.launch())


@pytest.mark.parametrize("call, who", [
    (_bad_scatter, [0]),
    (_scatter_without_values, [0]),
    (_bad_alltoall, [0, 1, 2, 3]),
])
def test_wrong_length_list_raises_the_same_error_on_both_engines(call, who):
    hops = _errors(call, "hops")
    assert hops == _errors(call, "macro")
    assert [r for r, msg in enumerate(hops) if msg] == who
    assert all("one value per rank" in hops[r] for r in who)
