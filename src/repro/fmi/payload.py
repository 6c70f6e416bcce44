"""Checkpoint payloads: declared size vs. representative data.

The paper checkpoints 6 GB/node; materialising that for 1,536 simulated
processes is impossible, so a :class:`Payload` separates:

* ``nbytes``  -- the *declared* size, used for every timing charge
  (memcpy, network transfer, XOR encode);
* ``data``    -- a real ``uint8`` array carried through every code path
  (messages, XOR parity, reconstruction) so data integrity is
  verifiable bit-for-bit.

When ``nbytes == data.nbytes`` (the default for :meth:`wrap`) the model
is exact; large-scale benches use :meth:`synthetic` payloads whose
representative array is small but whose declared size is the full
checkpoint.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["Payload", "pack", "unpack", "copy_into"]

ArrayLike = Union[np.ndarray, bytes, bytearray, memoryview]


#: the dtype of every payload's ``data`` (NumPy keeps one object for it)
_UINT8 = np.dtype(np.uint8)


class Payload:
    """A sized blob of checkpoint (or message) data.

    ``data`` is always a flat C-contiguous ``uint8`` array.  An array
    that already is one -- an exact ``ndarray``, not a subclass -- is
    taken as it is, with no copy and no view: that is what every copy,
    split, pad and received chunk of the XOR ring passes.  Anything
    else is made contiguous and viewed as flat bytes, which shares the
    caller's memory whenever it can.
    """

    __slots__ = ("nbytes", "data")

    def __init__(self, data: np.ndarray, nbytes: float = None):
        if (data.__class__ is np.ndarray and data.dtype is _UINT8
                and data.ndim == 1 and data.flags.c_contiguous):
            self.data = data
        elif not isinstance(data, np.ndarray):
            raise TypeError("Payload data must be a numpy array")
        else:
            self.data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        self.nbytes = float(self.data.nbytes if nbytes is None else nbytes)
        if self.nbytes < self.data.nbytes:
            raise ValueError(
                f"declared nbytes ({self.nbytes}) smaller than real data "
                f"({self.data.nbytes})"
            )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def wrap(cls, obj: ArrayLike) -> "Payload":
        """Exact payload around real bytes / an ndarray (copies)."""
        if isinstance(obj, np.ndarray):
            return cls(obj.copy())
        if not isinstance(obj, (bytes, bytearray, memoryview)):
            # Guard against bytes(int) creating an n-byte zero buffer.
            raise TypeError(
                f"cannot wrap {type(obj).__name__}; pass an ndarray or bytes"
            )
        return cls(np.frombuffer(bytes(obj), dtype=np.uint8).copy())

    @classmethod
    def synthetic(cls, nbytes: float, seed: int = 0, rep_bytes: int = 256) -> "Payload":
        """Declared-size payload with a small deterministic witness array."""
        rep = min(int(rep_bytes), int(nbytes)) or 1
        rng = np.random.default_rng(seed)
        return cls(rng.integers(0, 256, size=rep, dtype=np.uint8), nbytes=nbytes)

    @classmethod
    def zeros_like(cls, other: "Payload") -> "Payload":
        return cls(np.zeros_like(other.data), nbytes=other.nbytes)

    # -- behaviour ------------------------------------------------------------
    @property
    def exact(self) -> bool:
        """True when declared size equals real size (full fidelity)."""
        return self.nbytes == self.data.nbytes

    def copy(self) -> "Payload":
        return Payload(self.data.copy(), nbytes=self.nbytes)

    def xor_inplace(self, other: "Payload") -> "Payload":
        """``self ^= other`` over the representative data.

        Payloads in one XOR group must have equal representative
        lengths (group members are padded by the checkpoint engine).
        """
        if other.data.nbytes != self.data.nbytes:
            raise ValueError("XOR of payloads with mismatched data lengths")
        np.bitwise_xor(self.data, other.data, out=self.data)
        return self

    def padded(self, data_len: int, nbytes: float) -> "Payload":
        """Copy padded with zeros to ``data_len`` real bytes and at
        least ``nbytes`` declared bytes (XOR groups pad to max)."""
        if data_len < self.data.nbytes:
            raise ValueError("cannot pad to a smaller length")
        buf = np.zeros(data_len, dtype=np.uint8)
        buf[: self.data.nbytes] = self.data
        return Payload(buf, nbytes=max(nbytes, float(data_len), self.nbytes))

    def split(self, k: int) -> List["Payload"]:
        """Split into ``k`` equal chunks (zero-padding the tail).

        Chunk declared size is ``ceil(nbytes / k)``; chunk data length
        is ``ceil(data_len / k)``.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        size = self.data.nbytes
        chunk_data = -(-size // k)  # ceil
        declared = max(self.nbytes / k, float(chunk_data))
        # one zeroed buffer, filled at once; each chunk is one of its rows
        rows = np.zeros((k, chunk_data), dtype=np.uint8)
        rows.reshape(-1)[:size] = self.data
        return [Payload(row, nbytes=declared) for row in rows]

    @staticmethod
    def join(chunks: List["Payload"], data_len: int, nbytes: float) -> "Payload":
        """Inverse of :meth:`split`: concatenate and trim."""
        buf = np.concatenate([c.data for c in chunks])[:data_len]
        return Payload(buf.copy(), nbytes=nbytes)

    def tobytes(self) -> bytes:
        return self.data.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Payload)
            and self.nbytes == other.nbytes
            and self.data.nbytes == other.data.nbytes
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):  # pragma: no cover - payloads are not dict keys
        return id(self)

    def __repr__(self) -> str:  # pragma: no cover
        marker = "" if self.exact else f" (rep {self.data.nbytes}B)"
        return f"<Payload {self.nbytes:.0f}B{marker}>"


# ------------------------------------------------ user buffers <-> payloads
# The three routines every checkpoint client shares (FMI_Loop, SCR, the
# level-2 restore, the standby sync): one definition each.
def pack(buffers: Sequence[Union[np.ndarray, Payload]],
         nbytes: Optional[Sequence[float]] = None) -> List[Payload]:
    """Snapshot user checkpoint buffers: arrays are copied, payloads
    taken as they are; ``nbytes[i]`` overrides buffer ``i``'s declared
    size."""
    out = []
    for index, buf in enumerate(buffers):
        declared = None if nbytes is None else float(nbytes[index])
        if isinstance(buf, Payload):
            out.append(buf if declared is None else Payload(buf.data, nbytes=declared))
        elif isinstance(buf, np.ndarray):
            out.append(Payload(buf.copy(), nbytes=declared))
        else:
            raise TypeError("checkpoint buffers must be numpy arrays or Payloads")
    return out


def unpack(blob: Payload, sections) -> List[Payload]:
    """Slice a stored blob back into its ``(data_len, declared_nbytes)``
    sections (the padding past the last one is dropped)."""
    out = []
    offset = 0
    for data_len, declared in sections:
        piece = blob.data[offset : offset + data_len].copy()
        out.append(Payload(piece, nbytes=max(declared, float(data_len))))
        offset += data_len
    return out


def copy_into(memcpy, buffers: Sequence[Union[np.ndarray, Payload]],
              payloads: List[Payload]):
    """Generator: copy restored ``payloads`` into the application's
    ``buffers``, charged as one more ``memcpy(nbytes)`` of the total."""
    if len(buffers) != len(payloads):
        raise ValueError(
            f"checkpoint has {len(payloads)} buffers, app passed {len(buffers)}"
        )
    yield memcpy(sum(p.nbytes for p in payloads))
    for buf, payload in zip(buffers, payloads):
        if isinstance(buf, Payload):
            if buf.data.nbytes != payload.data.nbytes:
                raise ValueError("restored payload shape mismatch")
            buf.data[:] = payload.data
            buf.nbytes = payload.nbytes
        else:
            flat = buf.view(np.uint8).reshape(-1)
            if flat.nbytes != payload.data.nbytes:
                raise ValueError("restored array shape mismatch")
            flat[:] = payload.data
