"""FMI exception types."""

from __future__ import annotations

__all__ = ["FmiError", "FailureNotified", "UnrecoverableFailure", "FmiAbort"]


class FmiError(RuntimeError):
    """Base class for FMI runtime errors."""


class FailureNotified(FmiError):
    """Raised inside application/runtime code when this process learns
    of a failure (log-ring event or fmirun re-sync).

    The FMI process driver catches it and transitions back to the H1
    Bootstrapping state -- user code never needs to handle it, which is
    the paper's "transparent recovery" contract.
    """

    def __init__(self, epoch: int, reason: str = ""):
        super().__init__(f"failure notified (recovery epoch {epoch}): {reason}")
        self.epoch = epoch


class UnrecoverableFailure(FmiError):
    """The failure pattern exceeds what level-1 XOR C/R can repair
    (e.g. two ranks of the same XOR group lost at once)."""


class FmiAbort(FmiError):
    """The job was aborted (unrecoverable failure or explicit abort)."""
