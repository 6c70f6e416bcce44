"""One measurement of one workload, in a fresh interpreter.

``run.py`` starts this file as a subprocess and reads the one JSON
line it prints.  Two modes:

* ``timed`` -- set up, then run the workload once, timing each
  segment from outside with nothing instrumented.  One pass per
  process: a second pass in the same interpreter runs up to 30 %
  slower than the first (heap growth), so every pass is a first pass.
* ``profile`` -- run the workload once under ``cProfile`` with the
  simulator's constructors watched, and report the call count, the
  per-layer ledger and the public counters.

**Speed normalisation.**  This sandbox's host changes speed in steps
of +-25 % every few seconds, at times by a factor of two for minutes
(a fixed pure-Python loop reads 27, 35 or 45 ms for seconds on end),
which no median over a ten-second run removes: raw medians of whole
runs spread 12-41 % over ten seeds, more than any regression bound the
benchmark driver admits.  A
:class:`SpeedProbe` therefore interrupts the timed code every 100 ms
(``SIGALRM``, so it works inside library calls that own their event
loop) to run :func:`calibrate`, a fixed stdlib-only event loop shaped
like the simulator's.  Each slice of wall time between two probes is
divided by ``probe time / CALIB_REF_S``: seconds *at the reference
speed*, a unit that keeps its meaning when the host does not keep its
speed.  The kernel shares no code with ``src/repro``, so no change to
the repo can move it; time spent in the probe is not counted.  Raw
seconds are reported beside the normalised ones.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import signal
import sys
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: the reference speed: a host on which :func:`calibrate` takes this
#: long (this sandbox at its usual fast level).  Fixed, so that
#: normalised seconds keep one meaning across commits and records.
CALIB_REF_S = 0.007
#: workload seconds between two probes
PROBE_PERIOD_S = 0.1
_CALIB_PROCS = 1000
_CALIB_STEPS = 10000


def _calib_proc(ident: int):
    step = 1.0 + (ident % 7) * 0.125
    inbox: Dict[int, float] = {}
    now = count = 0
    while True:
        count += 1
        inbox[count & 15] = now
        now = yield now + step


#: the kernel's processes, built on first use and kept, so that a
#: probe allocates next to nothing inside the code it interrupts
_HEAP: list = []
#: heap tie-break that never repeats, so no tie reaches the generators
_TIE = count()


def calibrate() -> float:
    """Seconds for a fixed event loop: generators woken off a heap."""
    heap = _HEAP
    if not heap:
        for ident in range(_CALIB_PROCS):
            proc = _calib_proc(ident)
            heappush(heap, (next(proc), next(_TIE), proc))
    t0 = time.perf_counter()
    for _ in range(_CALIB_STEPS):
        now, _tie, proc = heappop(heap)
        heappush(heap, (proc.send(now), next(_TIE), proc))
    return time.perf_counter() - t0


class SpeedProbe:
    """Time the ``with`` body in slices, one calibration between each.

    ``raw_s`` is the body's wall time without the probes; ``norm_s`` is
    the same at the reference speed; ``calib_s`` the raw-time-weighted
    mean calibration.  With ``period`` None there is no alarm, only
    the calibrations at both ends, each the median of three (used under
    the profiler, whose call count an interrupt handler would disturb).
    """

    def __init__(self, period: Optional[float] = PROBE_PERIOD_S):
        self.period = period
        self.raw_s = self.norm_s = self.calib_s = 0.0

    def _end_reading(self) -> float:
        if self.period is not None:
            return calibrate()
        return sorted(calibrate() for _ in range(3))[1]

    def _slice(self, until: float, calib: float) -> None:
        wall = until - self._since
        mean = (self._calib + calib) / 2
        self.raw_s += wall
        self.norm_s += wall * CALIB_REF_S / mean
        self.calib_s += wall * mean
        self._calib = calib

    def _tick(self, _signum, _frame) -> None:
        now = time.perf_counter()
        if not self._running:
            return
        self._slice(now, calibrate())
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self._since = time.perf_counter()

    def __enter__(self) -> "SpeedProbe":
        self._calib = self._end_reading()
        self._running = True
        if self.period is not None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period)
        self._since = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        now = time.perf_counter()
        self._running = False
        if self.period is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._slice(now, self._end_reading())
        self.calib_s /= self.raw_s


def run_pass(gos, period: Optional[float] = PROBE_PERIOD_S) -> dict:
    """Run one prepared pass, every segment under a speed probe."""
    row = {"wall_s": 0.0, "raw_wall_s": 0.0, "calib_s": 0.0, "ops": 0,
           "failed": 0, "violations": 0, "sim_s": 0.0, "notes": []}
    for go in gos:
        with SpeedProbe(period) as probe:
            outcome = go()
        row["wall_s"] += probe.norm_s
        row["raw_wall_s"] += probe.raw_s
        row["calib_s"] += probe.calib_s * probe.raw_s
        row["ops"] += outcome.ops
        row["failed"] += outcome.failed
        row["violations"] += outcome.violations
        row["sim_s"] += outcome.sim_s
        row["notes"] += outcome.notes
    row["calib_s"] /= row["raw_wall_s"]
    return row


@contextmanager
def _watch(*classes):
    """Collect every instance the watched classes construct.  This is
    how the counters of simulations built inside ``run_campaign`` and
    ``run_soak`` are reached without touching ``src/repro``."""
    seen: Dict[str, list] = {cls.__name__: [] for cls in classes}
    originals = {cls: cls.__init__ for cls in classes}

    def wrap(cls):
        original, instances = originals[cls], seen[cls.__name__]

        def __init__(self, *args, **kwargs):
            original(self, *args, **kwargs)
            instances.append(self)

        return __init__

    for cls in classes:
        cls.__init__ = wrap(cls)
    try:
        yield seen
    finally:
        for cls, original in originals.items():
            cls.__init__ = original


def _counters(seen: Dict[str, list]) -> Dict[str, float]:
    """Public counters of everything one pass constructed."""
    sims, transports, jobs = seen["Simulator"], seen["Transport"], seen["FmiJob"]
    contexts = [ctx for tr in transports for ctx in tr.contexts]
    unexpected = sum(c.matching.matched_unexpected for c in contexts)
    matched = unexpected + sum(c.matching.matched_posted for c in contexts)
    macros = [tr.macro for tr in transports if tr.macro is not None]
    latency = {plane: [] for plane in ("global", "logged", "replicated")}
    for job in jobs:
        latency[job.config.recovery] += [
            job.recovery_latency(epoch) for epoch in job.recovered_at if epoch
        ]
    every = [lat for lats in latency.values() for lat in lats]
    tenants = [rec for sched in seen["StreamScheduler"] for rec in sched.records]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "simt.kernel.events": sum(s.stats.events_processed for s in sims),
        "simt.kernel.peak_heap": max(s.stats.peak_heap for s in sims),
        "net.transport.msgs": sum(c.matching.delivered for c in contexts),
        "net.transport.dropped_stale": sum(t.dropped_stale for t in transports),
        "net.matching.matched_unexpected_share":
            unexpected / matched if matched else 0.0,
        "mpi.macro.instances_macro": sum(m.instances_macro for m in macros),
        "mpi.macro.instances_hop": sum(m.instances_hop for m in macros),
        "fmi.checkpoint.checkpoints_done":
            sum(j.checkpoints_done for j in jobs),
        "fmi.checkpoint.restores_done":
            sum(j.restores_done for j in jobs),
        "fmi.runtime.recoveries": sum(j.recovery_count for j in jobs),
        "fmi.msglog.sim_recovery_s": mean(latency["logged"]),
        "fmi.replication.sim_recovery_s": mean(latency["replicated"]),
        "sim_recovery_s": mean(every),
        "obs.trace_events": sum(len(t.events) for t in seen["Tracer"]),
        "sched.restarts": sum(r.restarts for r in tenants),
        "sched.preemptions": sum(r.preemptions for r in tenants),
    }


def run_profile(prepare: Callable[[], list]) -> dict:
    import layers
    from repro.fmi import FmiJob
    from repro.net.transport import Transport
    from repro.obs import Tracer
    from repro.sched.scheduler import StreamScheduler
    from repro.simt import Simulator

    profile = cProfile.Profile()

    def profiled(go):
        def run():
            profile.enable()
            try:
                return go()
            finally:
                profile.disable()
        return run

    gen2_before = gc.get_stats()[2]["collections"]
    with _watch(Simulator, Transport, FmiJob, Tracer, StreamScheduler) as seen:
        row = run_pass([profiled(go) for go in prepare()], period=None)
    profile.create_stats()

    metrics = layers.ledger(profile.stats)
    metrics.update(_counters(seen))
    metrics["chaos.violations"] = row["violations"]
    metrics["py.gc_gen2_collections"] = (
        gc.get_stats()[2]["collections"] - gen2_before
    )
    metrics["sim_s"] = row["sim_s"]
    return {"pass": row, "metrics": metrics,
            "host_calls_m": layers.total_calls_m(profile.stats)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("timed", "profile"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    # Set-up runs from the parent's spawn to the first timed region:
    # interpreter start (not probed: charged at the speed the probe
    # then sees), imports, and the first pass's machines and jobs --
    # for chaos_sweep that includes the cached failure-free reference
    # runs, which is why the profiled pass prepares a second time.
    boot_s = time.time() - args.spawned_at
    for _ in range(2):  # a fresh interpreter's first readings are 5-15 % slow
        calibrate()
    with SpeedProbe() as probe:
        sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
        from workloads import SEGMENTS

        segments = SEGMENTS[args.workload]

        def prepare():
            return [segment() for segment in segments(args.seed, args.tiny)]

        gos = prepare()

    out = {"setup_s": boot_s * CALIB_REF_S / probe.calib_s + probe.norm_s}
    if args.mode == "timed":
        out["pass"] = run_pass(gos)
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        out.update(run_profile(prepare))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
