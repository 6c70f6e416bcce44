"""Reduction operators for collectives.

Operators are plain binary callables; they must be associative and
commutative (the recursive-doubling allreduce combines in
topology-dependent order).  NumPy arrays combine elementwise.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["SUM", "MAX", "MIN", "PROD", "LOR", "LAND"]


def _elementwise(scalar_fn, array_fn):
    def op(a, b):
        # exact-class checks dodge two isinstance calls on the hot
        # scalar path (collective folds apply ops O(n log n) times)
        ta, tb = a.__class__, b.__class__
        if (ta is float or ta is int) and (tb is float or tb is int):
            return scalar_fn(a, b)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return array_fn(a, b)
        return scalar_fn(a, b)

    #: what ``op`` computes for two exact ``int``/``float``/``bool``
    #: operands; the macro tier folds a whole round of such values
    #: with ``map(op.scalar_fn, ...)`` instead of entering ``op`` per
    #: rank (``repro.mpi.macro._allreduce_results``)
    op.scalar_fn = scalar_fn
    return op


SUM = _elementwise(operator.add, np.add)
PROD = _elementwise(operator.mul, np.multiply)
MAX = _elementwise(max, np.maximum)
MIN = _elementwise(min, np.minimum)
LOR = _elementwise(lambda a, b: bool(a) or bool(b), np.logical_or)
LAND = _elementwise(lambda a, b: bool(a) and bool(b), np.logical_and)
