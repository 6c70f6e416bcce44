"""Checkpoint-interval policy for FMI_Loop (Section III-B).

Two modes mirroring the paper's environment variables:

* ``interval=k`` -- checkpoint on every k-th FMI_Loop call;
* ``mtbf=T``     -- auto-tune a *time* interval with Vaidya's model.
  The cost of the first (mandatory) checkpoint is measured and fed
  into :func:`repro.models.vaidya.optimal_interval`; the interval is
  re-derived whenever a newer cost measurement arrives.
"""

from __future__ import annotations

from typing import Optional

from repro.fmi.config import FmiConfig
from repro.models.vaidya import optimal_interval

__all__ = ["IntervalPolicy"]


class IntervalPolicy:
    """Decides, at each FMI_Loop call, whether to write a checkpoint."""

    def __init__(self, config: FmiConfig):
        self.config = config
        #: current auto-tuned interval in seconds (None in interval mode)
        self.time_interval: Optional[float] = None
        self._last_ckpt_time: Optional[float] = None
        self._calls_since_ckpt = 0

    # -- feedback from the runtime ------------------------------------------
    def record_checkpoint(self, now: float, cost: float) -> None:
        """A checkpoint just completed; update auto-tuning state."""
        self._last_ckpt_time = now
        self._calls_since_ckpt = 0
        if self.config.mtbf_seconds is not None and cost > 0:
            self.time_interval = optimal_interval(cost, self.config.mtbf_seconds)

    def reset_after_recovery(self, now: float) -> None:
        """Rollback restored state at ``now``; restart the clock."""
        self._last_ckpt_time = now
        self._calls_since_ckpt = 0

    # -- the decision -----------------------------------------------------------
    def should_checkpoint(self, now: float) -> bool:
        """Called once per FMI_Loop iteration."""
        if not self.config.checkpoint_enabled:
            return False
        if self._last_ckpt_time is None:
            # The paper: the first FMI_Loop call always checkpoints, so
            # any failure afterwards is level-1 recoverable.
            return True
        self._calls_since_ckpt += 1
        if self.config.interval is not None:
            return self._calls_since_ckpt >= self.config.interval
        if self.config.mtbf_seconds is not None:
            interval = self.time_interval
            if interval is None:
                return False  # cost not measured yet (cannot happen in practice)
            return now - self._last_ckpt_time >= interval
        return False  # neither knob set: only the initial checkpoint
