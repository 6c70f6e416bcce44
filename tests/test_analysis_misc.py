"""Table rendering, size estimation, reduction ops."""

import numpy as np
import pytest

from repro.analysis.tables import Table, fmt_bytes, fmt_seconds
from repro.fmi.payload import Payload
from repro.mpi.datatypes import sizeof
from repro.mpi.ops import LAND, LOR, MAX, MIN, PROD, SUM


# -------------------------------------------------------------------- tables
def test_table_renders_header_and_rows():
    t = Table("demo", ["a", "bb"])
    t.add(1, "x")
    t.add(22.5, "yy")
    out = t.render()
    lines = out.splitlines()
    assert lines[0] == "== demo =="
    assert "a" in lines[1] and "bb" in lines[1]
    assert "-+-" in lines[2]
    assert "22.5" in out and "yy" in out


def test_table_wrong_arity_rejected():
    t = Table("demo", ["a", "b"])
    with pytest.raises(ValueError):
        t.add(1)


def test_table_float_formatting():
    t = Table("f", ["v"])
    t.add(0.0001234)
    t.add(1234567.0)
    t.add(3.14159)
    out = t.render()
    assert "1.234e-04" in out
    assert "1.235e+06" in out
    assert "3.142" in out


def test_table_empty_renders():
    assert "== empty ==" in Table("empty", ["x"]).render()


def test_fmt_seconds_scales():
    assert fmt_seconds(3.5e-6) == "3.500 us"
    assert fmt_seconds(0.0123) == "12.30 ms"
    assert fmt_seconds(2.5) == "2.500 s"


def test_fmt_bytes_scales():
    assert fmt_bytes(3.24e9) == "3.24 GB"
    assert fmt_bytes(8.21e8) == "821.00 MB"
    assert fmt_bytes(1024.0) == "1.02 KB"
    assert fmt_bytes(12.0) == "12 B"


# ------------------------------------------------------------------- sizeof
def test_sizeof_ndarray():
    assert sizeof(np.zeros(100, dtype=np.float64)) == 800.0


def test_sizeof_payload_uses_declared():
    assert sizeof(Payload.synthetic(6e9, rep_bytes=16)) == 6e9


def test_sizeof_scalars_and_strings():
    assert sizeof(42) == 8.0
    assert sizeof(3.14) == 8.0
    assert sizeof(True) == 1.0
    assert sizeof(None) == 1.0
    assert sizeof("abcd") == 4.0
    assert sizeof(b"abc") == 3.0


def test_sizeof_containers_recursive():
    assert sizeof([1, 2, 3]) == 24.0
    assert sizeof({"k": 1.0}) == 8.0 + 1.0
    assert sizeof(()) == 8.0  # empty container floor
    assert sizeof(object()) == 64.0  # opaque default


class _Count(int):
    """An ``int`` subclass: it skips the exact-class table."""


@pytest.mark.parametrize("case", [
    (Payload.synthetic(96.0, rep_bytes=16), 96.0),
    (np.zeros(3, dtype=np.int32), 12.0),
    (b"abc", 3.0), (bytearray(b"ab"), 2.0), (memoryview(b"abcd"), 4.0),
    (True, 1.0), (None, 1.0),
    (7, 8.0), (2.5, 8.0), (1 + 2j, 8.0), (_Count(7), 8.0),
    (np.int16(3), 8.0), (np.float32(0.5), 8.0), (np.float64(0.5), 8.0),
    ("h\u00e9", 3.0),
    ({1: None}, 9.0), ([2.5, True], 9.0), ((None,), 1.0),
    ({1.5}, 8.0), (frozenset({1}), 8.0),
    (object(), 64.0),
], ids=lambda case: type(case[0]).__name__)
def test_sizeof_of_every_class_it_handles(case):
    data, size = case
    assert sizeof(data) == size


# ----------------------------------------------------------------------- ops
def test_ops_scalars():
    assert SUM(2, 3) == 5
    assert PROD(2, 3) == 6
    assert MAX(2, 3) == 3
    assert MIN(2, 3) == 2
    assert LOR(0, 1) is True
    assert LAND(1, 0) is False


def test_ops_arrays_elementwise():
    a, b = np.array([1, 5]), np.array([4, 2])
    assert np.array_equal(SUM(a, b), [5, 7])
    assert np.array_equal(MAX(a, b), [4, 5])
    assert np.array_equal(MIN(a, b), [1, 2])
    assert np.array_equal(PROD(a, b), [4, 10])

