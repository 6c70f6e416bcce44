"""Payload semantics and the XOR erasure codec."""

import numpy as np
import pytest

from repro.fmi.payload import Payload
from repro.fmi.xor_codec import (
    chunk_of_slot,
    encode_group,
    reconstruct_rank,
    slot_of_chunk,
    split_into_chunks,
)
from repro.fmi.xor_group import XorGroupLayout


# ----------------------------------------------------------------- Payload
def test_wrap_roundtrip():
    arr = np.arange(100, dtype=np.float64)
    p = Payload.wrap(arr)
    assert p.exact
    assert p.nbytes == arr.nbytes
    assert np.array_equal(np.frombuffer(p.tobytes(), dtype=np.float64), arr)


def test_wrap_copies():
    arr = np.zeros(10, dtype=np.uint8)
    p = Payload.wrap(arr)
    arr[0] = 99
    assert p.data[0] == 0


def test_wrap_bytes():
    p = Payload.wrap(b"hello")
    assert p.tobytes() == b"hello"


def test_synthetic_declared_vs_real():
    p = Payload.synthetic(6e9, seed=1, rep_bytes=128)
    assert p.nbytes == 6e9
    assert p.data.nbytes == 128
    assert not p.exact
    # deterministic
    q = Payload.synthetic(6e9, seed=1, rep_bytes=128)
    assert p == q


def test_declared_smaller_than_real_rejected():
    with pytest.raises(ValueError):
        Payload(np.zeros(100, dtype=np.uint8), nbytes=10)


def test_xor_inplace_self_inverse():
    a = Payload.wrap(np.random.default_rng(0).integers(0, 256, 64, dtype=np.uint8))
    b = Payload.wrap(np.random.default_rng(1).integers(0, 256, 64, dtype=np.uint8))
    orig = a.copy()
    a.xor_inplace(b).xor_inplace(b)
    assert a == orig


def test_xor_mismatched_lengths_rejected():
    a = Payload.wrap(np.zeros(8, dtype=np.uint8))
    b = Payload.wrap(np.zeros(9, dtype=np.uint8))
    with pytest.raises(ValueError):
        a.xor_inplace(b)


def test_split_join_roundtrip():
    data = np.arange(103, dtype=np.uint8)  # deliberately not divisible
    p = Payload.wrap(data)
    for k in (1, 2, 3, 7, 103, 200):
        chunks = p.split(k)
        assert len(chunks) == k
        assert len({c.data.nbytes for c in chunks}) == 1  # equal chunks
        back = Payload.join(chunks, data_len=p.data.nbytes, nbytes=p.nbytes)
        assert back == p


def test_padded():
    p = Payload.wrap(b"abc")
    q = p.padded(10, nbytes=10)
    assert q.data.nbytes == 10
    assert q.tobytes() == b"abc" + b"\x00" * 7
    with pytest.raises(ValueError):
        p.padded(1, nbytes=1)


def test_split_validates():
    with pytest.raises(ValueError):
        Payload.wrap(b"abc").split(0)


def test_an_exact_buffer_is_taken_as_it_is():
    # what every copy, split row and received ring chunk passes: no
    # copy, and no view of it either
    buf = np.arange(16, dtype=np.uint8)
    p = Payload(buf, nbytes=64.0)
    assert p.data is buf and p.nbytes == 64.0
    row = np.zeros((3, 5), dtype=np.uint8)[1]
    assert Payload(row).data is row


class _Bytes(np.ndarray):
    pass


@pytest.mark.parametrize("make", [
    lambda: np.arange(32, dtype=np.uint8)[::2],          # strided
    lambda: np.arange(12, dtype=np.float64),             # not uint8
    lambda: np.arange(12, dtype=np.int16).reshape(3, 4),  # 2-D, not uint8
    lambda: np.arange(12, dtype=np.uint8).reshape(3, 4),  # 2-D
    lambda: np.arange(12, dtype=np.uint8).reshape(3, 4).T,  # Fortran order
    lambda: np.arange(8, dtype=np.uint8).view(_Bytes),    # a subclass
    lambda: np.arange(8, dtype=np.dtype(np.uint8, metadata={"a": 1})),
], ids=["strided", "float64", "int16-2d", "uint8-2d", "fortran", "subclass",
        "dtype-instance"])
def test_any_other_array_is_viewed_as_flat_bytes(make):
    arr = make()
    p = Payload(arr)
    assert p.data.__class__ is np.ndarray and p.data.dtype == np.uint8
    assert p.data.ndim == 1 and p.data.flags.c_contiguous
    assert p.tobytes() == np.ascontiguousarray(arr).tobytes()
    assert p.nbytes == arr.nbytes
    # a contiguous array's memory is shared, as before
    assert np.shares_memory(p.data, arr) == arr.flags.c_contiguous


def _chunks_one_array_each(p, k):
    """:meth:`Payload.split` as it allocated before: a zeroed array per
    chunk, filled from its slice."""
    chunk_data = -(-p.data.nbytes // k)
    out = []
    for i in range(k):
        piece = np.zeros(chunk_data, dtype=np.uint8)
        lo = i * chunk_data
        hi = min(lo + chunk_data, p.data.nbytes)
        if lo < p.data.nbytes:
            piece[: hi - lo] = p.data[lo:hi]
        out.append(Payload(piece, nbytes=max(p.nbytes / k, float(chunk_data))))
    return out


@pytest.mark.parametrize("size", [0, 1, 5, 103, 4096])
@pytest.mark.parametrize("k", [1, 2, 3, 7, 15])
def test_split_rows_equal_one_array_per_chunk(size, k):
    p = Payload(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8),
                nbytes=size * 1e6 + 7.0)
    source = p.tobytes()
    got, want = p.split(k), _chunks_one_array_each(p, k)
    assert [(c.tobytes(), c.nbytes) for c in got] == [
        (c.tobytes(), c.nbytes) for c in want]
    # the rows share one buffer, but a write to one stays in it
    got[0].data[:] = 255
    assert [c.tobytes() for c in got[1:]] == [c.tobytes() for c in want[1:]]
    assert p.tobytes() == source


# ------------------------------------------------------------------- codec
def test_slot_assignment_bijection():
    n = 8
    for r in range(n):
        slots = [slot_of_chunk(r, m, n) for m in range(n - 1)]
        assert r not in slots  # never its own slot
        assert sorted(slots) == sorted(set(range(n)) - {r})
        for m in range(n - 1):
            assert chunk_of_slot(r, slot_of_chunk(r, m, n), n) == m


def test_chunk_of_own_slot_rejected():
    with pytest.raises(ValueError):
        chunk_of_slot(3, 3, 8)


def test_slot_of_chunk_range_check():
    with pytest.raises(ValueError):
        slot_of_chunk(0, 7, 8)  # only n-1 = 7 chunks: m in 0..6


def _random_group(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Payload.wrap(rng.integers(0, 256, size, dtype=np.uint8)) for _ in range(n)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_encode_then_reconstruct_any_single_failure(n):
    payloads = _random_group(n, size=240, seed=n)
    parity = encode_group(payloads)
    for f in range(n):
        survivors = {r: payloads[r] for r in range(n) if r != f}
        slots = {j: parity[j] for j in range(n) if j != f}
        rebuilt = reconstruct_rank(
            f, survivors, slots, n,
            data_len=payloads[f].data.nbytes, nbytes=payloads[f].nbytes,
        )
        assert rebuilt == payloads[f]


def test_parity_overhead_fraction():
    # Group size 16: parity is 1/15 = 6.67 % of the checkpoint (paper's 6.6 %).
    n = 16
    payloads = _random_group(n, size=15 * 64, seed=3)
    parity = encode_group(payloads)
    frac = parity[0].data.nbytes / payloads[0].data.nbytes
    assert frac == pytest.approx(1 / 15, rel=1e-6)


def test_encode_requires_equal_lengths():
    a = Payload.wrap(np.zeros(16, dtype=np.uint8))
    b = Payload.wrap(np.zeros(17, dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_group([a, b])


def test_encode_group_too_small():
    with pytest.raises(ValueError):
        encode_group([Payload.wrap(b"x")])
    with pytest.raises(ValueError):
        split_into_chunks(Payload.wrap(b"x"), 1)


def test_reconstruct_validates_survivors():
    payloads = _random_group(4, 30)
    parity = encode_group(payloads)
    with pytest.raises(ValueError):
        reconstruct_rank(0, {0: payloads[0], 1: payloads[1]}, dict(enumerate(parity)), 4, 30, 30.0)
    with pytest.raises(ValueError):
        reconstruct_rank(0, {1: payloads[1]}, dict(enumerate(parity)), 4, 30, 30.0)


# -------------------------------------------------------------- group layout
def test_layout_same_node_different_groups():
    lay = XorGroupLayout(num_ranks=96, procs_per_node=12, group_size=4)
    for node in range(8):
        node_ranks = [r for r in range(96) if lay.node_of(r) == node]
        groups = [lay.group_of(r) for r in node_ranks]
        assert len(set(groups)) == len(groups)


def test_layout_groups_span_distinct_nodes():
    lay = XorGroupLayout(num_ranks=96, procs_per_node=12, group_size=4)
    for g in range(lay.num_groups):
        members = lay.members(g)
        assert len(members) == 4
        nodes = [lay.node_of(r) for r in members]
        assert len(set(nodes)) == 4


def test_layout_membership_consistency():
    lay = XorGroupLayout(num_ranks=48, procs_per_node=4, group_size=3)
    for r in range(48):
        g = lay.group_of(r)
        members = lay.members(g)
        assert r in members
        assert members[lay.node_of(r) % lay.group_size] == r
    assert lay.num_groups == (48 // 4 // 3) * 4


def test_layout_validation():
    with pytest.raises(ValueError):
        XorGroupLayout(10, 3, 2)  # not divisible
    with pytest.raises(ValueError):
        XorGroupLayout(12, 4, 2)  # 3 nodes not multiple of group 2
    with pytest.raises(ValueError):
        XorGroupLayout(12, 4, 1)  # group too small
    lay = XorGroupLayout(12, 4, 3)
    with pytest.raises(ValueError):
        lay.group_of(12)
    with pytest.raises(ValueError):
        lay.members(99)
