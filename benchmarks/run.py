#!/usr/bin/env python3
"""Run one tamerep benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout; it imports tamerep from the
checkout's src/.  The workload runs in rounds, in one process, one item
after another.  A round runs one pass (see workloads.py) REPEATS times and
keeps each item's median time; rounds follow each other until --seconds
have passed.  Times are scaled by a reference loop timed between items (see
REFERENCE_S).  Every item's output is checked by an oracle.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics:

- --trace 0: the end-to-end metrics, measured with tracing off;
- --trace 1: the per-layer metrics.  The run first makes the untraced
  rounds, then runs the same rounds again under the tracer (tracer.py), and
  ends with the field-kernel microbenchmark (fieldbench.py).

The lines before it print every metric with its unit.  Each run also writes
a result file, and a traced run a span file, under .bench_results/ at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("sweep", "cert", "ortho", "pairs")
# setup_s is the median over this many fresh interpreters
SETUP_PROBES = 5
# Each pass runs this many times in a row and each item keeps its median time.
REPEATS = 3
# Reported times are scaled to a machine on which reference_loop() takes
# this long.  A shared machine can run the same code up to 1.5 times slower
# for tens of seconds at a time; dividing each item's time by the time of
# the reference loop run next to it cancels most of that.
REFERENCE_S = 0.004


def import_library() -> None:
    package = SRC / "tamerep"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: tamerep sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import tamerep

    if Path(tamerep.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported tamerep from {tamerep.__file__}, not {package}")


def setup(workload: str, seed: int):
    """Everything before the first timed item: import tamerep, load inputs and
    goldens, and apply the seed to the first pass."""
    import_library()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, wl.plan(0)


class Record(NamedTuple):
    label: str
    seconds: float  # scaled to the reference speed (see REFERENCE_S)
    wall: float  # as the clock read it
    error: str | None


def reference_loop() -> int:
    """Fixed pure-Python work, about 4 ms on the machine the benchmark was
    tuned on; it calls nothing in tamerep."""
    acc, table = 0, {}
    for i in range(6000):
        key = i * i % 97
        table[key] = table.get(key, 0) + (i ^ 0x5A5A)
        acc += pow(i + 2, 65, 1000003)
    return acc


def reference_s() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> list[float]:
    """Reference-scaled seconds from spawning a fresh interpreter to the end
    of its setup, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    before = reference_s()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: a wait with one polls, which rounds the time to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        after = reference_s()
        times.append(wall * REFERENCE_S / ((before + after) / 2))
        before = after
    return times


def run_items(items, tracer=None) -> list[Record]:
    """Run and check each item, timing the reference loop between items."""
    records = []
    before = reference_s()
    for item in items:
        if tracer:
            tracer.begin_item(item.label)
        start = time.perf_counter()
        try:
            out, error = item.run(), None
        except Exception as exc:  # a failing item is counted, not fatal
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer:
            tracer.end_item(wall)
        after = reference_s()
        scaled = wall * REFERENCE_S / ((before + after) / 2)
        before = after
        if error is None:
            try:
                error = "; ".join(item.check(out)) or None
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        records.append(Record(item.label, scaled, wall, error))
    return records


def run_round(plan, tracer=None) -> list[Record]:
    """Run one pass REPEATS times; per item, the repeat with the median
    scaled time, carrying the first error any repeat met."""
    runs = [run_items(plan, tracer) for _ in range(REPEATS)]
    out = []
    for repeats in zip(*runs):
        error = next((r.error for r in repeats if r.error), None)
        median = sorted(repeats, key=lambda r: r.seconds)[len(repeats) // 2]
        out.append(median._replace(error=error))
    return out


def run_rounds(wl, plans: list, seconds: float, tracer=None, rounds: int | None = None):
    """Whole rounds until `seconds` have passed, or exactly `rounds` of them.
    `plans` holds the passes planned so far and is extended in place."""
    records = []
    start = time.perf_counter()
    index = 0
    while True:
        if index == len(plans):
            plans.append(wl.plan(index))
        records += run_round(plans[index], tracer)
        index += 1
        if rounds is None and time.perf_counter() - start >= seconds:
            return records, index
        if index == rounds:
            return records, index


def tail_percentile(pass_size: int) -> int:
    """Highest whole percentile with at least 10 of one pass's items above it;
    fixed per workload, so runs of any number of rounds report the same one."""
    return max(50, math.floor(100 - 1000 / pass_size))


def end_to_end(records: list[Record], setup_times, pass_size) -> tuple[dict, dict]:
    lat = sorted(r.seconds for r in records)
    pct = tail_percentile(pass_size)
    rank = math.ceil(pct / 100 * len(lat))
    wall = sorted(r.wall for r in records)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "item_tail_ms": (lat[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "items_per_s": f"wall clock {len(wall) / sum(wall):.4g}",
        "item_p50_ms": f"wall clock {statistics.median(wall) * 1e3:.4g}",
        "item_tail_ms": f"p{pct}, {len(lat)} samples, {len(lat) - rank} above it; "
        f"wall clock {wall[rank - 1] * 1e3:.4g}",
    }
    return metrics, notes


def environment(seed: int) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines(),
    }


def src_lines() -> int:
    return sum(len(f.read_bytes().splitlines()) for f in (SRC / "tamerep").glob("*.py"))


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(args, metrics: dict, notes: dict, records: list[Record], extra: dict) -> None:
    failed = [r for r in records if r.error is not None]
    fail_ratio = len(failed) / len(records)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  {len(records)} items")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    print(f"  {'fail_ratio':36s} {fail_ratio:14.6g} ratio  ({len(failed)} of {len(records)})")
    for rec in failed[:10]:
        print(f"  FAILED {rec.label}: {rec.error}")
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    doc = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "env": environment(args.seed), "fail_ratio": fail_ratio,
        "metrics": values, "notes": notes,
        "items": [
            {"label": r.label, "ms": r.seconds * 1e3, "wall_ms": r.wall * 1e3, "error": r.error}
            for r in records
        ],
        **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": values,
    }))


def traced_run(args, wl, plans, rounds, untraced):
    """Per-layer metrics: the untraced rounds again under the tracer, then the
    field-kernel microbenchmark."""
    import fieldbench
    import tracer as tracing
    from tamerep import ff

    tr = tracing.Tracer()
    tr.install()
    try:
        traced, _ = run_rounds(wl, plans, args.seconds, tr, rounds=rounds)
    finally:
        tr.uninstall()
    metrics = tracing.layer_metrics(tr)
    item_s = [sum(r.seconds for r in recs) for recs in (untraced, traced)]
    metrics["trace.overhead"] = (item_s[1] / item_s[0], "ratio")
    field_metrics, checks = fieldbench.run(ff, args.seed)
    metrics.update(field_metrics)
    metrics["src.lines"] = (src_lines(), "lines")
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps({
        "workload": args.workload, "env": environment(args.seed),
        "spans": tr.span_records(),
    }) + "\n")
    kernel = [Record(label, 0.0, 0.0, error) for label, error in checks]
    return metrics, untraced + traced + kernel, {"spans_file": spans_path.name}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, first = setup(args.workload, args.seed)
    if args.setup_probe:
        return 0
    plans = [first]
    records, rounds = run_rounds(wl, plans, args.seconds)
    if args.trace:
        metrics, records, extra = traced_run(args, wl, plans, rounds, records)
        notes = {}
    else:
        setup_times = measure_setup(args.workload, args.seed)
        metrics, notes = end_to_end(records, setup_times, len(first))
        extra = {"rounds": rounds, "repeats": REPEATS, "setup_probes_s": setup_times}
    report(args, metrics, notes, records, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
