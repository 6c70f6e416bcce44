"""Level-2 (PFS) checkpointing for FMI -- the paper's §VIII future work.

"Future versions of FMI will support multilevel C/R to be able to
recover from any failures occurring on HPC systems."  This module is
that version: every ``level2_every``-th level-1 (XOR) checkpoint is
also flushed to the parallel filesystem, and when a failure exceeds
XOR protection (two members of one group lost, or a whole group wiped)
the job transparently falls back to the newest *complete* level-2
dataset instead of aborting.

Dataset completion on the PFS mirrors the level-1 protocol: each rank
writes its blob, a world barrier confirms everyone finished, then rank
0 writes a ``COMPLETE`` marker.  The two newest complete datasets are
retained (the same keep-2 argument as level 1).

After a level-2 restore every rank re-seeds its level-1 cache (stores
the blob locally and re-encodes XOR parity), so the cheap tier is
immediately protective again -- the multilevel invariant from the
SCR/multilevel-checkpointing line of work the paper builds on.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.fmi.payload import Payload

__all__ = ["Level2Store"]


class Level2Store:
    """Per-rank handle on the job's level-2 datasets in the PFS."""

    def __init__(self, pfs, job_name: str, rank: int):
        self.pfs = pfs
        self.job_name = job_name
        self.rank = rank
        #: dataset ids whose files may be on the PFS (see ``_known``)
        self._datasets: Set[int] = set()
        self._discovered = False

    # -- paths -------------------------------------------------------------
    def _blob_path(self, dataset: int, rank: Optional[int] = None) -> str:
        r = self.rank if rank is None else rank
        return f"fmi-l2/{self.job_name}/ds{dataset}/rank{r}"

    def _marker_path(self, dataset: int) -> str:
        return f"fmi-l2/{self.job_name}/ds{dataset}/COMPLETE"

    # -- write side -----------------------------------------------------------
    def flush(self, dataset: int, blob: Payload, sections: List[tuple]):
        """Write this rank's blob (async-ish: the PFS pipe is shared)."""
        import json

        self._datasets.add(dataset)
        header = json.dumps({"sections": [list(s) for s in sections]}).encode()
        yield self.pfs.write(self._blob_path(dataset) + ".meta", header)
        yield self.pfs.write(
            self._blob_path(dataset), blob.tobytes(), nbytes=blob.nbytes
        )

    def mark_complete(self, dataset: int, num_ranks: int):
        """Rank 0 only, after a world barrier: stamp the dataset."""
        yield self.pfs.write(
            self._marker_path(dataset), repr(num_ranks).encode()
        )

    def prune(self, keep: List[int]) -> None:
        """Drop this rank's blobs for datasets not in ``keep`` (rank 0
        also drops their markers)."""
        for ds in self._known().difference(keep):
            blob = self._blob_path(ds)
            self.pfs.unlink(blob)
            self.pfs.unlink(blob + ".meta")
            if self.rank == 0:
                self.pfs.unlink(self._marker_path(ds))
            self._datasets.discard(ds)

    # -- read side -----------------------------------------------------------
    def _known(self) -> Set[int]:
        """Dataset ids that may have files on the PFS: whatever one
        listing finds the first time the store is asked (a restarted
        rank inherits its predecessor's files), and this store's own
        flushes from then on.  Every rank flushes every dataset, so a
        store need not sort and parse the job's whole namespace after
        each flush to learn what it wrote itself."""
        if not self._discovered:
            self._discovered = True
            prefix = f"fmi-l2/{self.job_name}/ds"
            for path in self.pfs.listdir():
                if path.startswith(prefix):
                    self._datasets.add(int(path[len(prefix):].split("/", 1)[0]))
        return self._datasets

    def complete_datasets(self) -> List[int]:
        """Known dataset ids with a COMPLETE marker (which rank 0
        writes, and every rank sees)."""
        return [
            ds for ds in sorted(self._known())
            if self.pfs.exists(self._marker_path(ds))
        ]

    def latest_for_me(self) -> int:
        """Newest complete dataset that has *my* blob (normally the
        newest complete one; -1 if none)."""
        for ds in reversed(self.complete_datasets()):
            if self.pfs.exists(self._blob_path(ds)):
                return ds
        return -1

    def read(self, dataset: int):
        """Fetch my blob; returns ``(payload, sections)``."""
        import json

        header = yield self.pfs.read(self._blob_path(dataset) + ".meta")
        sections = [tuple(s) for s in json.loads(header.decode())["sections"]]
        # The declared size is not stored: recover it from the sections
        # (sum of declared section sizes; the padded blob may be larger
        # in real bytes).
        raw = yield self.pfs.read(self._blob_path(dataset))
        blob = Payload(
            np.frombuffer(raw, dtype=np.uint8).copy(),
            nbytes=max(float(len(raw)), sum(s[1] for s in sections)),
        )
        return blob, sections
