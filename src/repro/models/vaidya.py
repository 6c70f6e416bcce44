"""Checkpoint-interval optimisation (Vaidya [13] family).

FMI auto-tunes its checkpoint interval from a user-supplied MTBF
(Section III-B).  We model a Poisson failure process with rate
``lambda = 1/MTBF``; with checkpoint cost ``C``, restart cost ``R`` and
useful-work segment length ``T``, the classic renewal analysis gives an
expected wall-time *factor* per unit of useful work of::

    F(T) = e^{lam R} * (e^{lam (T + C)} - 1) / (lam * T)

(:func:`expected_runtime_factor`).  :func:`optimal_interval` minimises
F numerically (golden-section), and agrees with the first-order
closed form ``sqrt(2 C M)`` when ``C << MTBF`` -- which the tests
check.  The same function serves the FMI runtime and the ablation
benchmark on interval choice.
"""

from __future__ import annotations

import functools
import math

__all__ = ["expected_runtime_factor", "optimal_interval", "young_interval"]


def _check_finite(**params: float) -> None:
    """Reject NaN/inf model inputs with the offending name."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def expected_runtime_factor(
    interval: float, ckpt_cost: float, mtbf: float, restart_cost: float = 0.0
) -> float:
    """Expected wall seconds per useful second at this interval."""
    _check_finite(interval=interval, ckpt_cost=ckpt_cost, mtbf=mtbf,
                  restart_cost=restart_cost)
    if interval <= 0:
        raise ValueError("interval must be positive")
    if mtbf <= 0:
        raise ValueError("mtbf must be positive")
    if ckpt_cost < 0:
        raise ValueError("ckpt_cost must be >= 0")
    if restart_cost < 0:
        raise ValueError("restart_cost must be >= 0")
    return _factor(interval, ckpt_cost, mtbf, restart_cost)


def _factor(interval: float, ckpt_cost: float, mtbf: float,
            restart_cost: float) -> float:
    """:func:`expected_runtime_factor` for inputs already checked."""
    lam = 1.0 / mtbf
    x = lam * (interval + ckpt_cost)
    # Guard against overflow in pathological corners of optimisation.
    if x > 700:
        return math.inf
    # expm1 keeps the near-failure-free limit exact: for x below float
    # epsilon, exp(x) - 1.0 rounds to 0 and the factor collapses to 0
    # instead of its true limit (interval + ckpt_cost) / interval >= 1.
    return math.exp(lam * restart_cost) * math.expm1(x) / (lam * interval)


def young_interval(ckpt_cost: float, mtbf: float) -> float:
    """First-order closed form: sqrt(2 * C * MTBF)."""
    _check_finite(ckpt_cost=ckpt_cost, mtbf=mtbf)
    if ckpt_cost < 0 or mtbf <= 0:
        raise ValueError("need ckpt_cost >= 0 and mtbf > 0")
    return math.sqrt(2.0 * ckpt_cost * mtbf)


@functools.lru_cache(maxsize=1024)
def optimal_interval(
    ckpt_cost: float, mtbf: float, restart_cost: float = 0.0
) -> float:
    """Numerically optimal useful-work segment length between
    checkpoints (seconds).

    Memoised: symmetric ranks measure the same checkpoint cost and each
    asks after every checkpoint.  A raised error is not cached, so bad
    input raises every time.
    """
    _check_finite(ckpt_cost=ckpt_cost, mtbf=mtbf, restart_cost=restart_cost)
    if ckpt_cost < 0:
        raise ValueError("ckpt_cost must be >= 0")
    if mtbf <= 0:
        raise ValueError("mtbf must be positive")
    if restart_cost < 0:
        raise ValueError("restart_cost must be >= 0")
    if ckpt_cost == 0:
        # Free checkpoints: checkpoint as often as possible; callers
        # clamp to one application iteration.
        return 0.0
    # Golden-section search on a bracket around the Young estimate.
    lo = max(1e-9, 0.01 * young_interval(ckpt_cost, mtbf))
    hi = max(100.0 * young_interval(ckpt_cost, mtbf), 10.0 * ckpt_cost)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    # The three constants were checked above and every probe lies in
    # [lo, hi] with lo > 0: probe the unchecked factor (the runtime
    # calls this per rank per checkpoint, ~55 probes a call).
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = _factor(c, ckpt_cost, mtbf, restart_cost)
    fd = _factor(d, ckpt_cost, mtbf, restart_cost)
    for _ in range(200):
        if b - a < 1e-9 * (b if b > 1.0 else 1.0):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _factor(c, ckpt_cost, mtbf, restart_cost)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _factor(d, ckpt_cost, mtbf, restart_cost)
    return 0.5 * (a + b)
