"""The Himeno benchmark: an iterative Poisson-equation solver.

"Himeno is a stencil application in which each grid point is
iteratively updated using only neighbor points ... Himeno uses
point-to-point communications and one Allreduce at the end of each
iteration."  (Section VI-B)

We implement a Jacobi-relaxed Poisson solve on a 3D grid, 1-D
decomposed along the slowest axis: per iteration each rank

1. exchanges boundary planes with its up/down neighbours (sendrecv),
2. applies the 7-point stencil (really, with numpy, in *real* mode),
3. allreduces the residual.

Two fidelity modes:

* ``real`` (default) -- a small grid is actually computed; tests verify
  the residual decreases and that recovery is bit-exact.
* ``synthetic`` -- the grid exists only as sizes (points per rank,
  halo-plane bytes, checkpoint bytes); compute time is charged from the
  paper-calibrated flops/point.  This scales to 1,536 ranks for the
  Fig 15 benchmark.

In both modes the simulated time charged per iteration is identical in
structure: flops/compute-rate + halo messages + allreduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fmi.payload import Payload

__all__ = ["HimenoParams", "himeno_fmi_app", "himeno_mpi_app", "jacobi_step"]

#: flops per grid point per iteration (Himeno's kernel is ~34)
FLOPS_PER_POINT = 34.0
BYTES_PER_POINT = 8.0


@dataclass
class HimenoParams:
    """Problem geometry and execution mode."""

    #: iterations to run (FMI_Loop count)
    iterations: int = 10
    # -- real mode ------------------------------------------------------
    #: global grid (nz is decomposed across ranks); used when
    #: ``synthetic`` is False
    nx: int = 16
    ny: int = 16
    nz: int = 32
    # -- synthetic mode ----------------------------------------------------
    synthetic: bool = False
    #: grid points per rank (synthetic)
    points_per_rank: float = 8.55e6
    #: bytes of one halo plane (synthetic)
    halo_bytes: float = 333e3
    #: checkpoint bytes per rank (synthetic); Fig 15 uses 821 MB/node
    #: over 12 ranks = ~68.4 MB/rank
    ckpt_bytes: float = 68.4e6
    #: extra simulated seconds per iteration (lets small test grids
    #: occupy realistic wall time so failures can be injected mid-run)
    extra_work_s: float = 0.0

    def local_nz(self, size: int) -> int:
        if not self.synthetic and self.nz % size != 0:
            raise ValueError("nz must divide evenly across ranks")
        return self.nz // size

    def rank_points(self, size: int) -> float:
        if self.synthetic:
            return self.points_per_rank
        return float(self.nx * self.ny * self.local_nz(size))

    def rank_flops(self, size: int) -> float:
        return self.rank_points(size) * FLOPS_PER_POINT

    def plane_bytes(self, size: int) -> float:
        if self.synthetic:
            return self.halo_bytes
        return float(self.nx * self.ny * BYTES_PER_POINT)


def jacobi_step(u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of the 7-point Poisson stencil on the interior
    of ``u`` (ghost planes at z=0 and z=-1).  Returns the new array."""
    new = u.copy()
    new[1:-1, 1:-1, 1:-1] = (
        u[:-2, 1:-1, 1:-1]
        + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2]
        + u[1:-1, 1:-1, 2:]
        - rhs[1:-1, 1:-1, 1:-1]
    ) / 6.0
    return new


def _halo_exchange(api, u, params, tag_up=101, tag_dn=102):
    """Exchange boundary planes with rank-1 (down) and rank+1 (up)."""
    rank, size = api.rank, api.size
    plane = params.plane_bytes(size)
    if params.synthetic:
        up_data = dn_data = None
    else:
        up_data = u[-2].copy()  # my top interior plane -> neighbour's ghost
        dn_data = u[1].copy()
    if size == 1:
        return
    # Send up / receive from below, then send down / receive from above.
    if rank + 1 < size and rank - 1 >= 0:
        got_dn = yield from api.sendrecv(rank + 1, up_data, source=rank - 1,
                                         nbytes=plane, tag=tag_up)
        got_up = yield from api.sendrecv(rank - 1, dn_data, source=rank + 1,
                                         nbytes=plane, tag=tag_dn)
        if not params.synthetic:
            u[0] = got_dn
            u[-1] = got_up
    elif rank + 1 < size:  # bottom rank
        yield api.send(rank + 1, up_data, nbytes=plane, tag=tag_up)
        got_up = yield from api.recv(rank + 1, tag=tag_dn)
        if not params.synthetic:
            u[-1] = got_up
    elif rank - 1 >= 0:  # top rank
        got_dn = yield from api.recv(rank - 1, tag=tag_up)
        yield api.send(rank - 1, dn_data, nbytes=plane, tag=tag_dn)
        if not params.synthetic:
            u[0] = got_dn


def _make_state(api, params):
    """Allocate this rank's field (+ checkpoint stand-in)."""
    size = api.size
    if params.synthetic:
        field = Payload.synthetic(params.ckpt_bytes, seed=api.rank, rep_bytes=64)
        rhs = None
    else:
        lz = params.local_nz(size)
        shape = (lz + 2, params.nx, params.ny)
        field = np.zeros(shape, dtype=np.float64)
        # Fixed unit source in the domain interior drives the solve.
        rng = np.random.default_rng(12345)
        rhs = rng.normal(scale=1e-3, size=shape)
    return field, rhs


def _iteration(api, params, field, rhs):
    """One Himeno iteration; returns (new_field, local residual)."""
    yield from _halo_exchange(api, field if not params.synthetic else None, params)
    yield api.compute(params.rank_flops(api.size))
    if params.extra_work_s > 0:
        yield api.elapse(params.extra_work_s)
    if params.synthetic:
        return field, 0.0
    new = jacobi_step(field, rhs)
    residual = float(np.sum((new[1:-1] - field[1:-1]) ** 2))
    return new, residual


def himeno_fmi_app(params: HimenoParams):
    """FMI flavour: FMI_Loop drives checkpoint/rollback transparently."""

    def app(fmi):
        field, rhs = _make_state(fmi, params)
        residuals = []
        gflops_points = 0.0
        yield from fmi.init()
        while True:
            n = yield from fmi.loop([field])
            if n >= params.iterations:
                break
            field, res = yield from _iteration(fmi, params, field, rhs)
            total_res = yield from fmi.allreduce(res)
            residuals.append(total_res)
            gflops_points += params.rank_points(fmi.size)
        yield from fmi.finalize()
        return {"residuals": residuals,
                "field_sum": None if params.synthetic else float(field.sum()),
                "points": gflops_points}

    return app


def himeno_mpi_app(params: HimenoParams, scr_factory=None):
    """MPI flavour.  ``scr_factory(api)`` (optional) builds an SCR
    context; with it, the app restarts from the latest dataset and
    checkpoints explicitly -- the traditional C/R structure."""

    def app(mpi):
        field, rhs = _make_state(mpi, params)
        residuals = []
        start = 0
        scr = scr_factory(mpi) if scr_factory is not None else None
        if scr is not None:
            found = yield from scr.restart()
            if found is not None:
                dataset_id, payloads = found
                yield from scr.restore_into([field], payloads)
                # The dataset holds state *entering* iteration
                # dataset_id, so redo that iteration.
                start = dataset_id
        for n in range(start, params.iterations):
            if scr is not None:
                want = yield from scr.need_checkpoint_collective()
                if want:
                    yield from scr.checkpoint([field], dataset_id=n)
            field, res = yield from _iteration(mpi, params, field, rhs)
            total_res = yield from mpi.allreduce(res)
            residuals.append(total_res)
        yield from mpi.barrier()
        return {"residuals": residuals,
                "field_sum": None if params.synthetic else float(field.sum()),
                "points": params.rank_points(mpi.size) * len(residuals)}

    return app
