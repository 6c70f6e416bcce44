"""Direct drives: one layer's public functions on seeded inputs.

Where a profiled workload can only say what *share* of a run a layer
took, a drive says how fast the layer is alone, so a change to one
layer shows here first and the workloads say whether it mattered.
Each drive calls nothing but the layer's public API, checks its own
output, and is timed under a :class:`child.SpeedProbe` like every other
timing of the benchmark (see ``child.py``).

Run as a script it prints one JSON object, metric name -> value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import numpy as np  # noqa: E402

from child import SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    CKPT_PER_RANK, MACRO_PPN, XOR_GROUP, collectives, himeno_segment,
    make_machine,
)


def kernel_storm(seed: int, tiny: bool) -> Dict[str, float]:
    """Processes that do nothing but sleep: timeouts, the heap, resumes."""
    from repro.simt import Simulator

    procs, naps = (200, 20) if tiny else (2000, 40)
    delays = np.random.default_rng(seed).uniform(0.5, 1.5, size=procs).tolist()
    sim = Simulator()

    def sleeper(delay):
        for _ in range(naps):
            yield sim.timeout(delay)

    with SpeedProbe() as probe:
        for delay in delays:
            sim.spawn(sleeper(delay))
        sim.run()
    assert sim.stats.events_processed >= procs * naps
    return {"simt.kernel.drive_events_per_s":
            sim.stats.events_processed / probe.norm_s}


def matcher_incast(seed: int, tiny: bool) -> Dict[str, float]:
    """The incast stream of ``bench_engine_throughput.drive_matcher``:
    even rounds post first and deliver in reverse, odd rounds deliver
    first and drain through wildcard receives.  The seed picks the
    order sources arrive in."""
    from repro.net.matching import ANY_SOURCE, MatchingEngine
    from repro.net.message import Envelope
    from repro.simt import Simulator

    depth, rounds = (48, 8) if tiny else (384, 64)
    order = np.random.default_rng(seed).permutation(depth).tolist()
    sim = Simulator()
    engine = MatchingEngine(sim)

    with SpeedProbe() as probe:
        for r in range(rounds):
            tag = r % 3
            if r % 2 == 0:
                recvs = [engine.post(src, tag, 0) for src in order]
                for src in reversed(order):
                    engine.deliver(Envelope(src, 0, tag, 0, 0, 8.0))
            else:
                for src in order:
                    engine.deliver(Envelope(src, 0, tag, 0, 0, 8.0))
                recvs = [engine.post(ANY_SOURCE, tag, 0) for _ in order]
            sim.run()
            assert all(evt.processed for evt in recvs)
    msgs = depth * rounds
    assert engine.matched_posted + engine.matched_unexpected == msgs
    assert engine.unexpected_count == 0 and engine.pending_posted == 0
    return {"net.matching.drive_ops_per_s": 2 * msgs / probe.norm_s}


def xor_codec(seed: int, tiny: bool) -> Dict[str, float]:
    """Encode a group of real payloads, then rebuild one lost member."""
    from repro.fmi.payload import Payload
    from repro.fmi.xor_codec import encode_group, reconstruct_rank

    size = (64 << 10) if tiny else (4 << 20)
    rng = np.random.default_rng(seed)
    payloads = [
        Payload(rng.integers(0, 256, size=size, dtype=np.uint8))
        for _ in range(XOR_GROUP)
    ]
    lost = int(rng.integers(XOR_GROUP))
    mb = XOR_GROUP * size / 1e6
    encode_s, reconstruct_s = [], []
    for _ in range(3):  # the first touch of fresh 64 MB buffers page-faults
        with SpeedProbe() as probe:
            parity = encode_group(payloads)
        encode_s.append(probe.norm_s)
        with SpeedProbe() as probe:
            rebuilt = reconstruct_rank(
                lost,
                {r: p for r, p in enumerate(payloads) if r != lost},
                {j: p for j, p in enumerate(parity) if j != lost},
                XOR_GROUP, data_len=size, nbytes=float(size),
            )
        reconstruct_s.append(probe.norm_s)
        assert rebuilt == payloads[lost]
    return {
        "fmi.xor_codec.encode_mb_per_s": mb / statistics.median(encode_s),
        "fmi.xor_codec.reconstruct_mb_per_s":
            mb / statistics.median(reconstruct_s),
    }


def checkpoint_group(seed: int, tiny: bool) -> Dict[str, float]:
    """One checkpoint and one restore of a 16-member group, one member
    per node, through ``CheckpointEngine`` on the simulated fabric; the
    seed picks the member whose storage is lost in between."""
    from repro.fmi.checkpoint import CheckpointEngine, MemoryStorage
    from repro.fmi.payload import Payload
    from repro.fmi.redundancy import make_scheme
    from repro.mpi.runtime import MpiJob

    group = 4 if tiny else XOR_GROUP
    sim, machine = make_machine(group, seed)
    lost = int(machine.rng.stream("perf-drive").integers(group))
    restored_ok = []

    def app(api):
        storage = MemoryStorage(api.node)
        engine = CheckpointEngine(api.world, storage, api.memcpy,
                                  scheme=make_scheme("xor"))
        payload = Payload.synthetic(CKPT_PER_RANK * 12, seed=api.rank,
                                    rep_bytes=64)
        yield from engine.checkpoint([payload], dataset_id=0)
        if api.rank == lost:
            storage.clear()
        yield from api.barrier()
        _meta, restored = yield from engine.restore()
        restored_ok.append(restored[0] == payload)

    job = MpiJob(machine, app, nprocs=group, procs_per_node=1,
                 charge_init=False)
    with SpeedProbe() as probe:
        sim.run(until=job.launch())
    assert len(restored_ok) == group and all(restored_ok)
    return {"fmi.checkpoint.drive_group_wall_s": probe.norm_s}


def macro_allreduce(seed: int, tiny: bool) -> Dict[str, float]:
    """One macro-tier allreduce across the ``macro_16k`` rank count."""
    from repro.mpi.runtime import MpiJob

    ranks = 1536 if tiny else 16384
    sim, machine = make_machine(ranks // MACRO_PPN, seed)

    def app(api):
        return (yield from api.allreduce(api.rank, nbytes=8.0))

    job = MpiJob(machine, app, ranks, procs_per_node=MACRO_PPN, charge_init=False)
    with SpeedProbe() as probe, collectives("macro"):
        results = sim.run(until=job.launch())
    assert results == [ranks * (ranks - 1) // 2] * ranks
    assert job.transport.macro.instances_hop == 0
    return {"mpi.macro.drive_allreduce_wall_s": probe.norm_s}


def trace_overhead(seed: int, tiny: bool) -> Dict[str, float]:
    """Himeno with one node crash, ``Tracer`` + ``MetricsRegistry`` on
    over off: what observing a recovery costs the host."""
    ranks, iterations, kill_at = (24, 12, 6.0) if tiny else (48, 20, 11.0)
    walls = {False: 0.0, True: 0.0}
    # A later run in one interpreter is slower than an earlier one (heap
    # growth), so the arms alternate off, on, on, off: each sums one
    # early and one late run.
    for observed in (False, True, True, False):
        go = himeno_segment(seed, ranks, iterations, checkpoints=True,
                            kill_at=kill_at, observed=observed)()
        with SpeedProbe() as probe:
            outcome = go()
        assert outcome.failed == 0, outcome.notes
        walls[observed] += probe.norm_s
    return {"obs.trace_overhead_ratio": walls[True] / walls[False]}


#: the 16k-rank drive last: it grows the heap, which slows what follows
DRIVES = (kernel_storm, matcher_incast, xor_codec, checkpoint_group,
          trace_overhead, macro_allreduce)


def run_all(seed: int, tiny: bool = False) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for drive in DRIVES:
        metrics.update(drive(seed, tiny))
    return metrics


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_all(args.seed, args.tiny)))
