"""The paper's XOR cost relations, checked at any size, on simulated time.

Section V-B prices a level-1 XOR checkpoint of ``s`` bytes per rank in a
group of ``n`` as ``s/mem_bw + (s + s/(n-1))/net_bw + s/mem_bw``, and a
restart as that plus the gather's ``s/net_bw``.  Whatever the
constants, two relations follow, and the simulator -- its fair-share
pipes (``simt.resources``) above all -- must obey them at every size:

* **affine in s**: the time is a fixed latency term plus a term
  proportional to ``s``, so ``T(4s) - T(2s) = 2 (T(2s) - T(s))``;
* **bandwidth scaling**: multiplying every bandwidth of the spec (memory
  bus, NIC, tmpfs, PFS) by ``2^k`` divides that ``s`` term -- the
  bandwidth-bound part of every phase -- by ``2^k``, so
  ``2^k (T_k(2s) - T_k(s)) = T(2s) - T(s)``.

Each draw runs one XOR group, one rank per node, through a checkpoint
and the restore of a rank whose checkpoint is gone, and reads the
slowest rank of each.  A run is a few milliseconds of host time
whatever ``s`` is.  The tolerance is :data:`REL`; the largest error
measured over ``n`` 2-16 and ``s`` 1 KiB-1 GiB is 5e-9, float noise of
the pipes' progress updates.

The checkpoint obeys both relations at every size.  The restart obeys
them only once its flows are bandwidth-bound, above ~512 KiB per rank
at the spec's bandwidths: below that it is an ``xfail`` whose reason
names the mechanism.  So is Fig 11's relation, restart measured over
``cr_model.restart_time`` flat in the group size from 4 to 64: the
ratio falls from 1.21 to 1.09.

One relation holds of a whole run: **nodes nobody uses change
nothing**.  Spare nodes reserved with the allocation, or idle nodes
left in the machine, must leave a failure-free FMI Himeno run -- its
final clock, its kernel event count and its answers -- bit-equal, with
checkpoints and without.  ROADMAP item 26 lists the relations still to
add.
"""

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.himeno import HimenoParams, himeno_fmi_app
from repro.cluster import Machine
from repro.cluster.spec import SIERRA, ClusterSpec
from repro.fmi import FmiConfig, FmiJob
from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage
from repro.fmi.payload import Payload
from repro.fmi.redundancy import make_scheme
from repro.models.cr_model import restart_time
from repro.mpi.runtime import MpiJob
from repro.simt import Simulator
from repro.simt.rng import RngRegistry

#: 1 at tier-1, 10 under ``--hypothesis-profile=deep`` (``conftest.py``)
_SCALE = max(1, settings.default.max_examples // 100)

#: relative tolerance of every relation
REL = 1e-6

#: the rank whose checkpoint is lost before the restore
REPLACED = 0

_GROUP = st.integers(2, 16)
_SEED = st.integers(0, 2**16)
_K = st.integers(-3, 3)
#: per-rank checkpoint bytes, 1 KiB to 1 GiB
_BYTES = st.integers(2**10, 2**30).map(float)
#: the restart is bandwidth-bound from ~512 KiB; at 2^3 times the
#: bandwidths, from 4 MiB -- 8 MiB up leaves a factor of two spare
_BOUND_BYTES = st.integers(2**23, 2**30).map(float)


def _scaled(spec: ClusterSpec, factor: float) -> ClusterSpec:
    """``spec`` with every bandwidth multiplied by ``factor``."""
    fs = spec.filesystem
    return replace(
        spec,
        node=replace(spec.node, memory_bw=spec.node.memory_bw * factor),
        network=replace(spec.network, link_bw=spec.network.link_bw * factor),
        filesystem=replace(fs, tmpfs_bw=fs.tmpfs_bw * factor,
                           pfs_bw=fs.pfs_bw * factor),
    )


def _times(n, s, seed, factor=1.0, spec=SIERRA):
    """``(checkpoint, restart)`` simulated seconds of the slowest rank of
    one XOR group of ``n`` checkpointing ``s`` bytes per rank."""
    sim = Simulator()
    machine = Machine(sim, _scaled(spec, factor).with_nodes(n),
                      RngRegistry(seed))
    ckpt, restart = {}, {}

    def app(api):
        storage = MemoryStorage(api.node)
        engine = CheckpointEngine(api.world, storage, api.memcpy,
                                  scheme=make_scheme("xor"))
        payload = Payload.synthetic(s, seed=seed + api.rank, rep_bytes=64)
        yield from api.barrier()
        t0 = api.now
        yield from engine.checkpoint([payload], dataset_id=0)
        ckpt[api.rank] = api.now - t0
        if api.rank == REPLACED:
            storage.clear()
        yield from api.barrier()
        t0 = api.now
        _meta, restored = yield from engine.restore()
        restart[api.rank] = api.now - t0
        assert restored[0] == payload

    job = MpiJob(machine, app, nprocs=n, procs_per_node=1, charge_init=False)
    sim.run(until=job.launch())
    return max(ckpt.values()), max(restart.values())


def _affine(n, s, seed, phase, spec=SIERRA):
    """The two successive ``s`` terms of ``phase`` (0 checkpoint,
    1 restart): ``T(2s) - T(s)`` and ``(T(4s) - T(2s)) / 2``."""
    t1, t2, t4 = (_times(n, m * s, seed, spec=spec)[phase] for m in (1, 2, 4))
    return t2 - t1, (t4 - t2) / 2


def _s_terms(n, s, seed, k, phase):
    """``T(2s) - T(s)`` of ``phase``, at the spec's bandwidths and at
    ``2^k`` times them, the latter multiplied by ``2^k``."""
    factor = 2.0 ** k
    t1, t2 = (_times(n, m * s, seed)[phase] for m in (1, 2))
    u1, u2 = (_times(n, m * s, seed, factor)[phase] for m in (1, 2))
    return t2 - t1, (u2 - u1) * factor


@settings(max_examples=40 * _SCALE, deadline=None)
@given(n=_GROUP, s=_BYTES, seed=_SEED)
def test_xor_checkpoint_time_is_affine_in_s(n, s, seed):
    first, second = _affine(n, s, seed, 0)
    assert first > 0 and second == pytest.approx(first, rel=REL)


@settings(max_examples=30 * _SCALE, deadline=None)
@given(n=_GROUP, s=_BOUND_BYTES, seed=_SEED)
def test_xor_restart_time_is_affine_in_s_once_bandwidth_bound(n, s, seed):
    first, second = _affine(n, s, seed, 1)
    assert first > 0 and second == pytest.approx(first, rel=REL)


@settings(max_examples=40 * _SCALE, deadline=None)
@given(n=_GROUP, s=_BYTES, seed=_SEED, k=_K)
def test_scaling_every_bandwidth_by_2_to_the_k_divides_the_checkpoints_s_term(
        n, s, seed, k):
    base, scaled = _s_terms(n, s, seed, k, 0)
    assert base > 0 and scaled == pytest.approx(base, rel=REL)


@settings(max_examples=30 * _SCALE, deadline=None)
@given(n=_GROUP, s=_BOUND_BYTES, seed=_SEED, k=_K)
def test_scaling_every_bandwidth_by_2_to_the_k_divides_the_restarts_s_term(
        n, s, seed, k):
    base, scaled = _s_terms(n, s, seed, k, 1)
    assert base > 0 and scaled == pytest.approx(base, rel=REL)


def test_without_latency_the_restart_is_affine_at_every_size():
    # the control for the xfail below: zero wire latency and software
    # overhead, and the small sizes it fails at are affine again
    spec = replace(SIERRA, network=replace(
        SIERRA.network, wire_latency=0.0, sw_overhead_mpi=0.0,
        sw_overhead_fmi=0.0))
    for n, s in ((6, 2.0**14), (6, 2.0**15), (12, 2.0**15), (12, 2.0**16)):
        first, second = _affine(n, s, 0, 1, spec)
        assert second == pytest.approx(first, rel=REL), (n, s)


@pytest.mark.xfail(strict=True, reason=(
    "overlapping flows: two flows of c bytes that enter one fair-share "
    "NIC d seconds apart finish at t0 + c/bw + max(d, c/bw), a max of "
    "two affine terms in s.  In the XOR rebuild a survivor's gather "
    "chunk and its parity-reduce message leave through its transmit "
    "NIC, and the gather chunks and the regenerated parity slot reach "
    "the replacement's receive NIC, microseconds apart: while "
    "s/(n-1)/net_bw is of that order, which of them overlap, and so "
    "the restart's slope, changes with s (and with the bandwidths).  "
    "Without latency the same points are affine (the test above)"))
@pytest.mark.parametrize("n, s", [(6, 2.0**14), (6, 2.0**15),
                                  (12, 2.0**15), (12, 2.0**16)])
def test_xor_restart_time_is_affine_in_s_below_the_bandwidth_bound(n, s):
    first, second = _affine(n, s, 0, 1)
    assert second == pytest.approx(first, rel=REL)


# ------------------------------------------------ Fig 11: flat in n
@pytest.mark.xfail(strict=True, reason=(
    "parity regeneration: after the gather, the rebuild's binomial "
    "XOR-reduce of the lost parity slot runs ceil(log2(n-1)) rounds and "
    "a hand-off to the replacement, (ceil(log2(n-1)) + 1) s/(n-1)/net_bw "
    "in series (31.6 ms at n=4, 3.6 ms at n=64, 96 MB per rank), which "
    "restart_time does not price; the decode ring it prices at "
    "2 s/mem_bw + (s + s/(n-1))/net_bw takes s/mem_bw + "
    "(n-2)/(n-1) s (1/net_bw + 1/mem_bw).  The ckpt.rebuild span "
    "exceeds the decode and gather terms by 11.9 ms at n=4 and 2.9 ms "
    "at n=64"))
def test_xor_restart_over_its_model_is_flat_in_the_group_size():
    # Fig 11's relation: whatever the constants, measured / model must
    # not drift with n once the group is past the degenerate sizes.
    s, spec = 96e6, SIERRA
    ratios = [
        _times(n, s, 0)[1] / restart_time(
            s, n, spec.node.memory_bw, spec.network.link_bw)
        for n in (4, 8, 16, 32, 64)
    ]
    assert max(ratios) / min(ratios) - 1 <= 0.01, ratios


# --------------------------------------------------- nodes nobody uses
@st.composite
def _layouts(draw):
    """``(nodes, procs per node, XOR group size)``: a group size that
    divides the node count, as the layout requires."""
    nodes = draw(st.integers(2, 16))
    ppn = draw(st.integers(1, max(1, 32 // nodes)))
    group = draw(st.sampled_from(
        [g for g in range(2, nodes + 1) if nodes % g == 0]))
    return nodes, ppn, group


def _himeno_run(layout, seed, checkpoints, spares=0, idle=0):
    """``(repr(now), events processed, answers)`` of a failure-free FMI
    Himeno run on ``spares`` reserved and ``idle`` unallocated nodes
    beyond the ones its ranks fill."""
    nodes, ppn, group = layout
    sim = Simulator()
    machine = Machine(sim, SIERRA.with_nodes(nodes + spares + idle),
                      RngRegistry(seed))
    params = HimenoParams(iterations=3, synthetic=True, points_per_rank=1e6,
                          halo_bytes=333e3, ckpt_bytes=1e6)
    config = FmiConfig(interval=2 if checkpoints else None,
                       checkpoint_enabled=checkpoints, xor_group_size=group,
                       spare_nodes=spares)
    job = FmiJob(machine, himeno_fmi_app(params), num_ranks=nodes * ppn,
                 procs_per_node=ppn, config=config)
    answers = sim.run(until=job.launch())
    assert job.recovery_count == 0 and (job.checkpoints_done > 0) == checkpoints
    return repr(sim.now), sim.stats.events_processed, answers


@settings(max_examples=6 * _SCALE, deadline=None)
@given(layout=_layouts(), seed=_SEED, spares=st.integers(0, 2),
       idle=st.integers(0, 2))
@example(layout=(2, 12, 2), seed=14, spares=1, idle=1)  # 24 ranks x 12
@example(layout=(8, 1, 4), seed=14, spares=2, idle=0)
@example(layout=(14, 1, 7), seed=14, spares=0, idle=2)
def test_spare_and_idle_nodes_leave_a_failure_free_run_bit_equal(
        layout, seed, spares, idle):
    for checkpoints in (False, True):
        bare = _himeno_run(layout, seed, checkpoints)
        assert _himeno_run(layout, seed, checkpoints, spares, idle) == bare
