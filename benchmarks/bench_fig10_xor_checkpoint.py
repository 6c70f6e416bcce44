"""Fig 10 -- XOR checkpoint time vs XOR group size (6 GB/node).

One rank per node (so per-rank == per-node as in the paper's figure),
synthetic payloads, group sizes 2..64 (scale-dependent).  Overlays the
Section V-B model; asserts the paper's conclusion that the time
saturates around group size 16 (where parity overhead is 6.6 %).

Timing comes from the observability layer: the checkpoint engine
emits ``ckpt.checkpoint`` (and per-phase ``ckpt.snapshot`` /
``ckpt.encode`` / ...) spans into an attached
:class:`repro.obs.Tracer`, and the benchmark reads the distributions
back through :func:`repro.obs.summary.summarize` instead of
stopwatching inside the application.
"""

import pytest

from _harness import CKPT_BYTES, GROUP_SIZES, run_engine_group
from repro.analysis.tables import Table
from repro.models.cr_model import checkpoint_time
from repro.obs.summary import summarize


def measure_checkpoint(group_size: int):
    def body(api, engine, storage, payload):
        yield from engine.checkpoint([payload], dataset_id=0)

    _sim, _results, tracer = run_engine_group(
        body, group_size, scheme="xor", seed=group_size, trace=True
    )
    phases = summarize(tracer).checkpoint()
    assert phases["ckpt.checkpoint"]["count"] == group_size
    return phases


def run_sweep():
    return {n: measure_checkpoint(n) for n in GROUP_SIZES}


def test_fig10_xor_checkpoint_time(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    spec_mem, spec_net = 32e9, 3.24e9
    table = Table(
        "Fig 10: XOR checkpoint time vs group size (1 proc/node)",
        ["Group size", "measured (s)", "model (s)", "memcpy (s)", "comm (s)",
         "encode (s)"],
    )
    measured = {n: phases["ckpt.checkpoint"]["max"] for n, phases in out.items()}
    for n in GROUP_SIZES:
        model = checkpoint_time(CKPT_BYTES, n, spec_mem, spec_net)
        memcpy = CKPT_BYTES / spec_mem
        comm = (CKPT_BYTES + CKPT_BYTES / (n - 1)) / spec_net
        encode = out[n]["ckpt.encode"]["max"]
        table.add(n, round(measured[n], 3), round(model, 3),
                  round(memcpy, 3), round(comm, 3), round(encode, 3))
        assert measured[n] == pytest.approx(model, rel=0.20), n
        # The traced ring-encode phase carries the (s + s/(n-1))/net_bw
        # transfer term; it dominates the whole checkpoint.
        assert encode == pytest.approx(comm, rel=0.25), n
    table.show()
    # Shape: time decreases with group size and saturates near 16.
    assert measured[2] > measured[8]
    if 16 in GROUP_SIZES:
        assert measured[8] > measured[16]
        last = GROUP_SIZES[-1]
        assert measured[16] - measured[last] < 0.08 * measured[16]
    # Parity overhead at 16: 1/15 = 6.7 % of the checkpoint.
    assert 1 / 15 == pytest.approx(0.0667, rel=0.01)
