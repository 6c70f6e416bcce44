"""Storage models: node-local tmpfs and a shared parallel filesystem.

Both store *real bytes* (checkpoint files written here are read back
and verified bit-for-bit by the tests), while charging simulated time
through fair-share bandwidth resources.  A tmpfs dies with its node --
that is the whole reason the paper needs XOR encoding across nodes.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.simt.kernel import Event, Simulator
from repro.simt.resources import BandwidthResource

__all__ = ["Tmpfs", "ParallelFilesystem", "FileLostError"]


class FileLostError(OSError):
    """Reading a file whose backing store was destroyed (node crash)."""


class _FilesystemBase:
    """Common open/write/read plumbing for both storage tiers."""

    def __init__(self, sim: Simulator, bandwidth: float, latency: float, name: str):
        self.sim = sim
        self.latency = latency
        self._bw = BandwidthResource(sim, bandwidth, name=name)
        self._files: Dict[str, bytes] = {}
        self._destroyed = False

    # -- capacity-less data plane ------------------------------------------
    def write(self, path: str, data: bytes, nbytes: Optional[float] = None) -> Event:
        """Write ``data`` under ``path``.

        ``nbytes`` is the *declared* size used for timing; it defaults
        to ``len(data)``.  (Large-scale experiments write representative
        buffers but charge for full checkpoint sizes -- see
        ``repro.fmi.payload``.)
        """
        size = float(len(data)) if nbytes is None else float(nbytes)
        done = self._bw.transfer(size, overhead=self.latency)
        blob = bytes(data)

        def commit(_evt: Event) -> None:
            if not self._destroyed:
                self._files[path] = blob

        done.callbacks.append(commit)
        return done

    def read(self, path: str, nbytes: Optional[float] = None) -> Event:
        """Read ``path``; the event fires with the stored bytes."""
        if self._destroyed or path not in self._files:
            evt = Event(self.sim)
            evt.fail(FileLostError(f"{path}: no such file (or store destroyed)"))
            return evt
        blob = self._files[path]
        size = float(len(blob)) if nbytes is None else float(nbytes)
        done = self._bw.transfer(size, overhead=self.latency)
        result = Event(self.sim)

        def deliver(_evt: Event) -> None:
            if self._destroyed:
                result.fail(FileLostError(f"{path}: store destroyed mid-read"))
            else:
                result.succeed(blob)

        done.callbacks.append(deliver)
        return result

    def peek(self, path: str) -> Optional[bytes]:
        """The stored bytes free of charge, None when there are none
        (never written, unlinked, or the store was destroyed): for
        lookups that model no I/O, such as a library's cached index."""
        return self._files.get(path)

    def unlink(self, path: str) -> None:
        self._files.pop(path, None)

    def exists(self, path: str) -> bool:
        return not self._destroyed and path in self._files

    def listdir(self) -> list:
        return sorted(self._files)

    def time_for(self, nbytes: float) -> float:
        """Uncontended time to stream ``nbytes`` (planning helper)."""
        return self.latency + nbytes / self._bw.capacity


class Tmpfs(_FilesystemBase):
    """RAM-backed node-local filesystem (SCR's level-1 target).

    Destroyed when the owning node crashes: every file is lost, which
    models the loss of in-memory checkpoints on node failure.
    """

    def destroy(self) -> None:
        """Node crash: all files are gone, further I/O fails."""
        self._destroyed = True
        self._files.clear()


class ParallelFilesystem(_FilesystemBase):
    """The shared PFS (Lustre-like): survives node failures.

    One global bandwidth pipe (50 GB/s on Sierra) shared by every
    writer on the machine, which is exactly why level-2 checkpoints are
    expensive at scale (Fig 17).
    """

    def __init__(self, sim: Simulator, bandwidth: float, latency: float):
        super().__init__(sim, bandwidth, latency, name="pfs")
