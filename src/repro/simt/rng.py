"""Named, seeded random streams.

Every stochastic component (failure injector, workload jitter...) draws
from its own named stream derived from a single master seed, so adding
a new consumer never perturbs the draws seen by existing ones and every
experiment is reproducible from one integer.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of independent ``numpy.random.Generator`` streams.

    Streams are keyed by name; the per-stream seed is derived by
    hashing ``(master_seed, name)`` so the mapping is stable across
    runs and platforms.
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode()
            ).digest()
            seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(seed)
            self._streams[name] = gen
        return gen
