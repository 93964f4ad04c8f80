#!/usr/bin/env python3
"""Field-setup split: where a cold field setup spends its time and work.

    python3 tests/fieldsplit.py [--repeats 5] [--src DIR ...]

For every field of the benchmark's sweep and cert workloads, and for the
large fields F_13^96 and F_3^256, the probe prints the cold time of
make_field (the modulus search), of q1_factors (factoring q - 1) and of
find_generator, in ms; the sizes of the Rabin batches the modulus search
ran; and the _PolyRing.mul_arr and frobenius_arr calls of the whole setup,
almost all of them the generator search's.  A "-" marks a field whose
q - 1 is past the factoring budget (TooLarge), so it has no generator.

Each repeat runs one fresh interpreter per package named by --src (default:
src/ of this checkout), in turn, so a slow spell of the machine spreads
over all of them.  A child first sets up one small field, untimed, so that
the numpy import and the trial-division primes are not charged to the
first field.  It then sets up every field PASSES times, each time from a
fresh descriptor with no cache of make_field, and keeps each field's least
time; a separate pass under spies counts the work.  The table gives, per
package, the median over its children.  The "pass" rows weight each field
by the number of times one pass of the workload builds it cold: once per
sweep item, twice per cert item (the build and the verify).  Pytest does
not collect this file, since its name does not start with test_.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "benchmarks" / "data"
LAYER = [(13, 96), (3, 256)]
# timed passes over the fields in each child; a field keeps its least time
PASSES = 3


def _degree(ell: int, t: int) -> int:
    k, x = 1, ell % t
    while x != 1:
        k, x = k + 1, x * ell % t
    return k


def workload_fields() -> dict[str, Counter]:
    """{workload: Counter of (p, k) cold builds in one pass}."""
    sweep = json.loads((DATA / "sweep.json").read_text())
    classes = {(n, t, ell) for n, _p, t, ell in sweep["tuples"]}
    params = [it["params"] for it in json.loads((DATA / "cert.json").read_text())["items"]]
    cert = Counter((ell, _degree(ell, t)) for _n, _p, t, _sign, ell in params)
    return {
        "sweep": Counter((ell, _degree(ell, t)) for _n, t, ell in classes),
        "cert": Counter({pk: 2 * n for pk, n in cert.items()}),
    }


def child(fields: list[tuple[int, int]]) -> None:
    """Print {field: {make, q1, gen, batches, mul, frob}} as JSON for the
    tamerep on sys.path."""
    from tamerep import ff
    from tamerep.errors import TooLarge

    def setup(p, k):
        t0 = time.perf_counter()
        f = ff.make_field.__wrapped__(p, k)
        t1 = time.perf_counter()
        try:
            f.q1_factors()
        except TooLarge:
            return f, (t1 - t0, None, None)
        t2 = time.perf_counter()
        ff.find_generator(f)
        return f, (t1 - t0, t2 - t1, time.perf_counter() - t2)

    setup(3, 4)
    passes = [[setup(p, k)[1] for p, k in fields] for _ in range(PASSES)]
    out = {
        f"{p},{k}": {part: None if times[0][i] is None else min(t[i] for t in times)
                     for i, part in enumerate(("make", "q1", "gen"))}
        for (p, k), times in zip(fields, zip(*passes))
    }
    batches, counts = [], Counter()
    rabin = ff._first_irreducible
    ff._first_irreducible = lambda block, p: batches.append(len(block)) or rabin(block, p)
    for name in ("mul_arr", "frobenius_arr"):
        real = getattr(ff._PolyRing, name)

        def counted(ring, *args, name=name, real=real):
            counts[name] += 1
            return real(ring, *args)

        setattr(ff._PolyRing, name, counted)
    for p, k in fields:
        batches.clear()
        counts.clear()
        setup(p, k)
        out[f"{p},{k}"].update(batches=list(batches), mul=counts["mul_arr"],
                               frob=counts["frobenius_arr"])
    print(json.dumps(out))


def ms(x) -> str:
    return "-" if x is None else f"{1000 * x:.2f}"


def runs(sizes: list[int]) -> str:
    """Batch sizes with each run of one size as size x count."""
    out = []
    for size in sizes:
        if out and out[-1][0] == size:
            out[-1][1] += 1
        else:
            out.append([size, 1])
    return " ".join(f"{size}x{n}" if n > 1 else str(size) for size, n in out)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"])
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child([tuple(pk) for pk in json.loads(args.child)])
        return
    for src in args.src:
        if not (src / "tamerep" / "__init__.py").is_file():
            raise SystemExit(f"error: no tamerep package under {src}")
    per_workload = workload_fields()
    fields = sorted(set().union(*per_workload.values())) + LAYER
    argv = [sys.executable, __file__, "--child", json.dumps(fields)]
    per_src = [[] for _ in args.src]
    for _ in range(args.repeats):
        for src, samples in zip(args.src, per_src):
            env = dict(os.environ, PYTHONPATH=str(src))
            samples.append(json.loads(subprocess.run(
                argv, env=env, check=True, capture_output=True, text=True).stdout))
    print(f"python {sys.version.split()[0]}  repeats {args.repeats}  "
          f"(ms of a cold setup: median over the children of the least of {PASSES})")
    for src, samples in zip(args.src, per_src):
        rows = {}
        for key, last in samples[-1].items():
            times = {
                part: None if last[part] is None else statistics.median(s[key][part] for s in samples)
                for part in ("make", "q1", "gen")
            }
            rows[tuple(map(int, key.split(",")))] = dict(last, **times)
        print(f"src {src}")
        print(f"  {'field':10s} {'make':>8s} {'q1':>8s} {'gen':>8s} {'mul':>6s} {'frob':>6s}  batches")
        for (p, k), r in rows.items():
            print(f"  F_{p}^{k:<6d} {ms(r['make']):>8s} {ms(r['q1']):>8s} {ms(r['gen']):>8s} "
                  f"{r['mul']:6d} {r['frob']:6d}  {runs(r['batches'])}")
        for name, weights in per_workload.items():
            total = {part: sum(n * (rows[pk][part] or 0) for pk, n in weights.items())
                     for part in ("make", "q1", "gen", "mul", "frob")}
            print(f"  {name + ' pass':10s} {ms(total['make']):>8s} {ms(total['q1']):>8s} "
                  f"{ms(total['gen']):>8s} {total['mul']:6d} {total['frob']:6d}  "
                  f"{sum(weights.values())} cold setups")


if __name__ == "__main__":
    main()
