"""Ablation -- XOR vs PARTNER vs SINGLE level-1 redundancy.

Sweeps the three redundancy schemes over group sizes, measuring
checkpoint time, restart time (where the scheme can repair a lost
member), and storage overhead, each against its analytic model in
:mod:`repro.models.cr_model`.

Expected shape, per the models:

* checkpoint: SINGLE (no network) < PARTNER (``s`` on the wire) <
  XOR (``s + s/(n-1)`` on the wire);
* storage overhead: SINGLE (0) < XOR (``1/(n-1)``) < PARTNER (1.0) --
  XOR's trade, and why the paper picks it;
* restart: PARTNER's copy-back beats XOR's group decode at small
  groups; both saturate with group size.
"""

import pytest

from _harness import CKPT_BYTES, GROUP_SIZES, run_engine_group
from repro.analysis.tables import Table
from repro.models.cr_model import checkpoint_time, restart_time, storage_overhead

SCHEMES = ["xor", "partner", "single"]
MEM_BW, NET_BW = 32e9, 3.24e9
FAILED = 0


def measure(scheme: str, group_size: int):
    """One group: checkpoint, then (if repairable) lose member 0 and
    restore.  Returns (ckpt_time, restart_time_or_None, overhead)."""
    ckpt_durations = {}
    restore_durations = {}
    overheads = {}
    repairable = scheme != "single"

    def body(api, engine, storage, payload):
        t0 = api.now
        yield from engine.checkpoint([payload], dataset_id=0)
        ckpt_durations[api.rank] = api.now - t0
        if api.rank == 0:
            rkey = engine.scheme.redundancy_key(0)
            extra = storage.peek(rkey).data.nbytes if rkey else 0
            overheads[api.rank] = extra / storage.peek("ckpt@0").data.nbytes
        if not repairable:
            return
        if api.rank == FAILED:
            storage.clear()
        yield from api.barrier()
        t0 = api.now
        _meta, restored = yield from engine.restore()
        restore_durations[api.rank] = api.now - t0
        assert restored[0] == payload

    run_engine_group(body, group_size, scheme=scheme, seed=group_size)
    return (
        max(ckpt_durations.values()),
        restore_durations.get(FAILED),
        overheads[0],
    )


def run_sweep():
    return {
        (scheme, n): measure(scheme, n)
        for scheme in SCHEMES
        for n in GROUP_SIZES
    }


def test_ablation_redundancy_schemes(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = Table(
        "Redundancy ablation: level-1 schemes (1 proc/node)",
        ["Scheme", "Group", "ckpt (s)", "ckpt model", "restart (s)",
         "restart model", "overhead", "overhead model"],
    )
    for scheme in SCHEMES:
        for n in GROUP_SIZES:
            ckpt, restart, overhead = out[(scheme, n)]
            ckpt_model = checkpoint_time(CKPT_BYTES, n, MEM_BW, NET_BW,
                                         scheme=scheme)
            restart_model = restart_time(CKPT_BYTES, n, MEM_BW, NET_BW,
                                         scheme=scheme)
            ov_model = storage_overhead(scheme, n)
            table.add(
                scheme, n, round(ckpt, 3), round(ckpt_model, 3),
                "-" if restart is None else round(restart, 3),
                round(restart_model, 3),
                round(overhead, 4), round(ov_model, 4),
            )
            # Measured phase costs track each scheme's analytic model.
            assert ckpt == pytest.approx(ckpt_model, rel=0.20), (scheme, n)
            assert overhead == pytest.approx(ov_model, rel=1e-6), (scheme, n)
            if restart is not None and n >= 4:
                assert restart == pytest.approx(restart_model, rel=0.35), \
                    (scheme, n)
    table.show()

    for n in GROUP_SIZES:
        # Checkpoint cost ordering: single < partner < xor.
        assert out[("single", n)][0] < out[("partner", n)][0] < out[("xor", n)][0]
        # Storage overhead ordering: single < xor <= partner (a group
        # of 2 degenerates XOR's parity into a full copy).
        assert out[("single", n)][2] < out[("xor", n)][2] <= out[("partner", n)][2]
        if n > 2:
            assert out[("xor", n)][2] < out[("partner", n)][2]
        # Partner restart is a copy-back, cheaper than XOR's decode at
        # every group size.
        if n >= 4:
            assert out[("partner", n)][1] < out[("xor", n)][1]
