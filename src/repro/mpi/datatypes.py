"""Wire-size estimation for message payloads."""

from __future__ import annotations

import numpy as np

from repro.fmi.payload import Payload

__all__ = ["sizeof", "snapshot", "wire_bytes"]


def wire_bytes(data, nbytes=None) -> float:
    """The byte count a message carrying ``data`` is priced at.

    The caller's explicit ``nbytes`` wins; otherwise the payload is
    sized with :func:`sizeof`.  The hop-level collectives and the
    macro-event cost model both price through this one helper, so the
    two paths can never disagree on byte counts.
    """
    return sizeof(data) if nbytes is None else float(nbytes)


#: exact classes that never need copying -- checked first because the
#: collective fold paths call :func:`snapshot` O(n log n) times per
#: instance and scalar payloads are the overwhelmingly common case
_IMMUTABLE = frozenset({
    int, float, bool, str, bytes, complex, type(None), tuple, frozenset,
})


def snapshot(data):
    """Copy mutable buffers at send time (buffered-send semantics).

    Immutable payloads pass through; the macro-event collective path
    calls this exactly where the hop-level path would have copied at a
    ``send_async``, so both produce byte-identical results.
    """
    cls = data.__class__
    if cls in _IMMUTABLE:
        return data
    if cls is Payload or isinstance(data, (np.ndarray, Payload)):
        return data.copy()
    return data

#: envelope/marshalling overhead assumed for small Python objects
_DEFAULT_OBJECT_BYTES = 64.0

#: exact scalar classes sized before the ``isinstance`` chain -- a
#: float residual is the common payload; subclasses (NumPy scalars
#: among them) still take the chain
_SCALAR_BYTES = {float: 8.0, int: 8.0, bool: 1.0, type(None): 1.0}


def sizeof(data) -> float:
    """Bytes this object occupies on the wire.

    Used when the caller does not pass an explicit ``nbytes``.  NumPy
    arrays and :class:`Payload` report exactly; scalars count 8 bytes;
    containers sum their items; anything else gets a flat estimate.
    """
    size = _SCALAR_BYTES.get(data.__class__)
    if size is not None:
        return size
    if isinstance(data, Payload):
        return data.nbytes
    if isinstance(data, np.ndarray):
        return float(data.nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return float(len(data))
    if isinstance(data, (bool, type(None))):
        return 1.0
    if isinstance(data, (int, float, complex, np.integer, np.floating)):
        return 8.0
    if isinstance(data, str):
        return float(len(data.encode()))
    if isinstance(data, dict):
        return sum(sizeof(k) + sizeof(v) for k, v in data.items()) or 8.0
    if isinstance(data, (list, tuple, set, frozenset)):
        return sum(sizeof(item) for item in data) or 8.0
    return _DEFAULT_OBJECT_BYTES
