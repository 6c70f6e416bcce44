"""Synthetic SPMD workloads.

Parametrised compute/communication mixes for tests and ablations that
need controllable behaviour rather than a real solver:

* :func:`bsp_app` -- bulk-synchronous iterations: compute, optional
  neighbour exchange, allreduce, checkpointable state vector.  The
  checkpointed state encodes the full iteration history, so any
  rollback bug corrupts a checkable invariant.
* :func:`imbalanced_app` -- per-rank compute skew (stragglers), for
  studying synchronisation costs.
* :func:`comm_storm_app` -- all-to-all pressure on the fabric.

All run unchanged on MPI (:class:`~repro.mpi.api.MpiApi`) and FMI
(:class:`~repro.fmi.api.FmiContext`); when the handle has ``loop`` the
FMI protocol is used, otherwise plain iteration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["bsp_app", "imbalanced_app", "comm_storm_app", "expected_bsp_state"]


def expected_bsp_state(rank: int, size: int, iterations: int) -> np.ndarray:
    """The state vector a correct :func:`bsp_app` run must end with."""
    u = np.zeros(4, dtype=np.float64)
    ranks_sum = float(sum(range(size)))
    for n in range(iterations):
        u[0] = n + 1.0
        u[1] = u[1] * 0.5 + rank + n
        u[2] = ranks_sum + size * n  # allreduce of rank+n
        u[3] = (rank - 1) % size + n  # left neighbour's payload
    return u


def bsp_app(iterations: int, work_s: float = 0.1, halo_bytes: float = 1e4):
    """Bulk-synchronous benchmark with a verifiable state recurrence."""

    def app(api):
        u = np.zeros(4, dtype=np.float64)
        is_fmi = hasattr(api, "loop")
        if is_fmi:
            yield from api.init()
        n = 0
        while n < iterations:
            if is_fmi:
                n = yield from api.loop([u])
                if n >= iterations:
                    break
            yield api.elapse(work_s)
            right = (api.rank + 1) % api.size
            left = (api.rank - 1) % api.size
            got = yield from api.sendrecv(right, float(api.rank + n),
                                          source=left, nbytes=halo_bytes)
            total = yield from api.allreduce(float(api.rank + n))
            u[0] = n + 1.0
            u[1] = u[1] * 0.5 + api.rank + n
            u[2] = total
            u[3] = got
            if not is_fmi:
                n += 1
        if is_fmi:
            yield from api.finalize()
        else:
            yield from api.barrier()
        return u

    return app


def imbalanced_app(iterations: int, base_work_s: float = 0.05,
                   skew: float = 2.0):
    """Rank r computes ``base * (1 + skew * r / (size-1))`` per step:
    the last rank is the straggler every barrier waits for."""

    def app(api):
        factor = 1.0 + (
            skew * api.rank / max(1, api.size - 1)
        )
        t0 = api.now
        for _n in range(iterations):
            yield api.elapse(base_work_s * factor)
            yield from api.barrier()
        return api.now - t0

    return app


def comm_storm_app(rounds: int, nbytes_per_peer: float = 1e5):
    """All-to-all exchanges back to back; returns fabric time/round."""

    def app(api):
        t0 = api.now
        for r in range(rounds):
            values = [(api.rank, r, dst) for dst in range(api.size)]
            got = yield from api.alltoall(values, nbytes=nbytes_per_peer)
            assert [g[0] for g in got] == list(range(api.size))
        return (api.now - t0) / rounds

    return app
