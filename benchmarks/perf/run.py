#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/perf/run.py --workload himeno_cr --seed 14 \\
        --seconds 8 --trace 0

prints every metric by name and unit and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
gives the end-to-end metrics from plain runs, ``--trace 1`` the
per-layer metrics from a profiled run plus the layer drives.

Without ``--workload`` it measures all six, ``--repeats`` times each
with the repeats interleaved across workloads so that machine drift
spreads evenly, then the traced pass, and writes a record to ``--out``.

    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py report results/BENCH_11.json
    python3 benchmarks/perf/run.py manifest > BENCHMARK.json

Every timing comes from a fresh subprocess (``child.py``); see there
for how wall times are normalised against the machine's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import spec  # noqa: E402
from child import CALIB_REF_S  # noqa: E402

#: timed passes per run at the least (one fresh process each), however
#: short ``--seconds`` is: a median needs three
MIN_PASSES = 3
#: a child that is still running after this long is killed; the driver
#: allows one run 180 s in all
CHILD_TIMEOUT_S = 150
#: the committed record: its simulated figures are the expected outputs
RECORD = os.path.join(HERE, "results", "BENCH_11.json")


class ChildFailed(RuntimeError):
    pass


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _spawn(script: str, *args: str) -> dict:
    """Run one of the benchmark's scripts in a fresh interpreter and
    return the JSON object on the last line of its output."""
    cmd = [sys.executable, os.path.join(HERE, script), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{script} {' '.join(args)}: timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{script} {' '.join(args)}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child(mode: str, workload: str, seed: int, tiny: bool) -> dict:
    args = [mode, "--workload", workload, "--seed", str(seed),
            "--spawned-at", repr(time.time())]
    return _spawn("child.py", *(args + ["--tiny"] if tiny else args))


def _timed(workload: str, seed: int, tiny: bool, seconds: float,
           at_least: int) -> List[dict]:
    """Fresh timed children, one pass each, for ``seconds`` in all."""
    start = time.monotonic()
    children: List[dict] = []
    while True:
        children.append(_child("timed", workload, seed, tiny))
        spent = time.monotonic() - start
        if (len(children) >= at_least
                and spent + spent / len(children) > seconds):
            return children


def run_drives(seed: int, tiny: bool) -> Dict[str, float]:
    """The layer drives; they do not depend on the workload."""
    return _spawn("drives.py", "--seed", str(seed), *(["--tiny"] if tiny else []))


def _simulated_in_record(workload: str, seed: int, tiny: bool) -> Dict[str, float]:
    """What the committed record says this input simulates, if it ran it."""
    if tiny or not os.path.exists(RECORD):
        return {}
    record = _load(RECORD)
    if record["seed"] != seed or record["tiny"]:
        return {}
    per_layer = record["workloads"][workload]["per_layer"]
    return {name: per_layer[name]["value"] for name in spec.SIMULATED}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, drives: Optional[Dict[str, float]] = None) -> dict:
    """One run of one workload: the driver's result object, plus the
    notes of any failed op and the simulated figures."""
    # The traced run needs plain passes only as the base of two ratios.
    timed = (_timed(workload, seed, tiny, seconds / 3, 1) if trace
             else _timed(workload, seed, tiny, seconds, MIN_PASSES))
    profiled = _child("profile", workload, seed, tiny)
    passes = [child["pass"] for child in timed]
    every = passes + [profiled["pass"]]
    wall = statistics.median(p["wall_s"] for p in passes)
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    notes = [note for p in every for note in p["notes"]]
    # One seed is one input: every pass must have simulated the same,
    # and the same as the committed record if that holds this input.  A
    # change that only speeds the simulator up leaves these identical; a
    # declared model change regenerates the record (see the README).
    if len({(p["ops"], p["sim_s"]) for p in every}) != 1:
        notes.append("passes of one seed disagree on ops or sim_s")
    simulated = {name: profiled["metrics"][name] for name in spec.SIMULATED}
    for name, want in _simulated_in_record(workload, seed, tiny).items():
        if simulated[name] != want:
            notes.append(f"{name} is {simulated[name]!r}, the committed "
                         f"record has {want!r}: the model changed")

    if not trace:
        values = {
            "wall_s": wall,
            "ops_per_s": passes[0]["ops"] / wall,
            "host_calls_m": profiled["host_calls_m"],
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
            # the profiled process sets up like the others, before it profiles
            "setup_s": statistics.median(
                c["setup_s"] for c in timed + [profiled]),
        }
        declared = spec.END_TO_END
    else:
        values = dict(profiled["metrics"])
        values.update(run_drives(seed, tiny) if drives is None else drives)
        values["simt.kernel.events_per_s"] = values["simt.kernel.events"] / wall
        values["py.profile_overhead_ratio"] = profiled["pass"]["wall_s"] / wall
        values["host.raw_wall_s"] = raw_wall
        values["host.speed_factor"] = statistics.median(
            p["calib_s"] for p in passes) / CALIB_REF_S
        if values["py.unmapped_self_share"] >= 0.05:
            notes.append("over 5 % of self time is in modules no layer claims")
        declared = spec.PER_LAYER

    failed = sum(p["failed"] for p in every)
    return {
        "correct": not notes and failed == 0,
        "attempted": sum(p["ops"] for p in every),
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in declared},
        "notes": notes,
        "ops": passes[0]["ops"],
        "simulated": simulated,
        "raw_wall_s": raw_wall,
    }


def _print_row(workload: str, name: str, value: float, unit: str) -> None:
    print(f"{workload:14s} {name:40s} {value:>16.6g} {unit}")


def _print_metrics(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        _print_row(workload, name, m["value"], m["unit"])
    for note in result["notes"]:
        print(f"{workload:14s} FAILED: {note}")


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.tiny)
    _print_metrics(args.workload, result)
    if not args.trace:  # what the result line cannot carry as metrics
        _print_row(args.workload, "host.raw_wall_s", result["raw_wall_s"], "s")
        for name, value in result["simulated"].items():
            _print_row(args.workload, name, value, "s")
        _print_row(args.workload, "ops_failed_share",
                   result["failed"] / result["attempted"], "share")
    sys.stdout.flush()
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# ------------------------------------------------------------- full record
def _summary(values: List[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4)
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def run_all(args) -> int:
    """Every workload, repeats interleaved, then the traced pass."""
    names = list(spec.WORKLOADS)
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    ok = True
    for repeat in range(args.repeats):
        for name in names:
            result = measure(name, args.seed, args.seconds, False, args.tiny)
            runs[name].append(result)
            ok &= result["correct"]
            print(f"# pass {repeat + 1}/{args.repeats} {name}: "
                  f"wall_s {result['metrics']['wall_s']['value']:.3f}",
                  flush=True)
    record = {"bench_id": args.bench_id, "seed": args.seed,
              "seconds": args.seconds, "repeats": args.repeats,
              "tiny": args.tiny, "machine": _machine(), "workloads": {}}
    drives = run_drives(args.seed, args.tiny)
    for name in names:
        traced = measure(name, args.seed, args.seconds, True, args.tiny, drives)
        ok &= traced["correct"]
        end_to_end = {
            m.name: dict(_summary([r["metrics"][m.name]["value"]
                                   for r in runs[name]]), unit=m.unit)
            for m in spec.END_TO_END
        }
        record["workloads"][name] = {
            "ops": traced["ops"],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "attempted": sum(r["attempted"] for r in runs[name])
            + traced["attempted"],
            "failed": sum(r["failed"] for r in runs[name]) + traced["failed"],
            "notes": [n for r in runs[name] + [traced] for n in r["notes"]],
        }
        for metric, s in end_to_end.items():
            print(f"{name:14s} {metric:40s} {s['median']:>16.6g} {s['unit']:7s}"
                  f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
        _print_metrics(name, traced)
        _print_row(name, "ops_failed_share",
                   record["workloads"][name]["failed"]
                   / record["workloads"][name]["attempted"], "share")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


# ----------------------------------------------------------------- compare
def _verdict(metric: spec.EndToEnd, a: dict, b: dict) -> str:
    """``b`` against ``a``: a change only counts beyond the bound, and
    only when the runs' own spread is narrower than the bound."""
    change = (b["median"] - a["median"]) / a["median"]
    if metric.better == "higher":
        change = -change
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if abs(change) <= metric.bound:
        return "unchanged"
    if spread > metric.bound:
        return "unresolved"
    return "regressed" if change > 0 else "improved"


def compare(path_a: str, path_b: str) -> int:
    rec_a, rec_b = _load(path_a), _load(path_b)
    bad = 0
    print(f"{'workload':14s} {'metric':14s} {'A median':>12s} {'A IQR':>10s} "
          f"{'B median':>12s} {'B IQR':>10s} {'B/A':>7s}  verdict")
    for name in spec.WORKLOADS:
        wa, wb = rec_a["workloads"][name], rec_b["workloads"][name]
        for metric in spec.END_TO_END:
            a, b = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            verdict = _verdict(metric, a, b)
            bad += verdict == "regressed"
            print(f"{name:14s} {metric.name:14s} {a['median']:12.5g} "
                  f"{a['q3'] - a['q1']:10.3g} {b['median']:12.5g} "
                  f"{b['q3'] - b['q1']:10.3g} "
                  f"{b['median'] / a['median']:7.3f}  {verdict} "
                  f"(base {a['median']:.5g} {metric.unit}, bound "
                  f"{metric.bound:.0%})")
        if rec_a["seed"] != rec_b["seed"]:
            continue
        for metric_name in spec.EXACT:
            a = wa["per_layer"][metric_name]["value"]
            b = wb["per_layer"][metric_name]["value"]
            if a != b:
                bad += 1
                print(f"{name:14s} {metric_name}: {a!r} -> {b!r}  changed "
                      f"(exact for one seed; a model or work change)")
        if wb["failed"]:
            bad += 1
            print(f"{name:14s} {wb['failed']} of {wb['attempted']} ops failed")
    print("no regression" if not bad else f"{bad} regressed or changed rows")
    return 1 if bad else 0


# ------------------------------------------------------------------ report
def report(path: str) -> str:
    """The README's generated block: tables from one record."""
    record = _load(path)
    lines = [f"Generated by `run.py report` from `{os.path.basename(path)}` "
             f"(seed {record['seed']}, {record['repeats']} runs of "
             f"{record['seconds']} s per workload, "
             f"{record['machine']['nproc']} cores, Python "
             f"{record['machine']['python']}, numpy "
             f"{record['machine']['numpy']}).", ""]
    head = ["workload"] + [f"{m.name} ({m.unit})" for m in spec.END_TO_END]
    lines += ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for name, w in record["workloads"].items():
        cells = [
            "{:.4g} ± {:.1%}".format(
                s["median"], (s["q3"] - s["q1"]) / s["median"])
            for s in (w["end_to_end"][m.name] for m in spec.END_TO_END)
        ]
        lines.append("| " + " | ".join([name] + cells) + " |")
    lines += ["", "Median ± interquartile range as a share of the median.", "",
              "| workload | top-3 layers by self time | top-3 entry points by "
              "inclusive time | ops | kernel events per op | host calls per op | "
              "sim_s | sim_recovery_s | profile overhead | unmapped |",
              "|---|---|---|---|---|---|---|---|---|---|"]
    for name, w in record["workloads"].items():
        layer = {k: v["value"] for k, v in w["per_layer"].items()}
        def top3(suffix: str) -> str:
            ranked = sorted(
                ((v, k[: -len(suffix)]) for k, v in layer.items()
                 if k.endswith(suffix) and not k.startswith("py.")),
                reverse=True,
            )[:3]
            return ", ".join(f"{k} {v:.0%}" for v, k in ranked)

        lines.append(
            f"| {name} | {top3('.self_share')} | {top3('.incl_share')} | "
            f"{w['ops']:,} | {layer['simt.kernel.events'] / w['ops']:,.1f} | "
            f"{w['end_to_end']['host_calls_m']['median'] * 1e6 / w['ops']:,.0f} | "
            f"{layer['sim_s']:.3f} | {layer['sim_recovery_s']:.3f} | "
            f"{layer['py.profile_overhead_ratio']:.1f}x | "
            f"{layer['py.unmapped_self_share']:.1%} |")
    lines += ["", "### Workloads", "", "| workload | op | why it exists |",
              "|---|---|---|"]
    lines += [f"| `{w.name}` | {w.op} | {w.why} |"
              for w in spec.WORKLOADS.values()]
    lines += ["", "### End-to-end metrics", "",
              "| metric | unit | better | regression bound | why it exists |",
              "|---|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.0%} | {m.why} |"
              for m in spec.END_TO_END]
    lines += ["", "### Per-layer metrics and what each should move", "",
              "| metric | unit | better | should move |", "|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.unit} | {m.better} | {m.moves} |"
              for m in spec.PER_LAYER]
    return "\n".join(lines)


# --------------------------------------------------------------------- CLI
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?",
                        choices=("compare", "report", "manifest"))
    parser.add_argument("files", nargs="*")
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(
        HERE, "results", "BENCH_local.json"))
    parser.add_argument("--bench-id", default="local")
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes, for the smoke test")
    args = parser.parse_args(argv)

    if args.command == "manifest":
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two record files")
        return compare(*args.files)
    if args.command == "report":
        if len(args.files) != 1:
            parser.error("report takes one record file")
        print(report(args.files[0]))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    try:
        return run_one(args) if args.workload else run_all(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
