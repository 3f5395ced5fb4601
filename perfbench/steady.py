#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, against the bounds.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--traced]

For every workload in ``BENCHMARK.json`` it makes ``--runs`` runs in each
of two sets, each run with its own seed (set 1 takes seeds 1..runs, set 2
the next ``runs``), alternating between the sets so that a drift of the
machine hits both alike.  For each end-to-end metric x workload it
reports, per set, the median and the spread (distance between the first
and third quartile as a share of the median, from
``statistics.quantiles(values, n=4)``), and the second set's median
against the first's.  A row passes when both spreads stay within the
metric's bound and the second median is not worse than the first by more
than the bound; ``target`` marks spreads below a third of the bound, the
margin the benchmark aims for.  While tuning, ``--runs 5 --workloads X``
gives a cheaper look at one workload; the proof uses the defaults.

``--traced`` instead makes two traced runs per workload with seed 1 and
checks that every count metric repeats exactly.

Results go to ``perfbench/out/steady.json``; the exit code is 1 when any
row fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first if first else 0.0
    return change if better == "lower" else -change


def steadiness(spec, args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    rows, ok = [], True
    for workload in workloads:
        sets = [[] for _ in range(SETS)]
        for i in range(args.runs):
            for s in range(SETS):
                seed = FIRST_SEED + s * args.runs + i
                result = run_once(workload, seed, seconds, 0)
                if not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: {result['failed']} failed items", file=sys.stderr)
                sets[s].append(result)
                print(f"  {workload} set {s + 1} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = worse_by(medians[0], medians[1], metric["better"])
            passed = drift <= bound and max(spreads) <= bound
            ok &= passed
            rows.append({
                "workload": workload, "metric": name, "bound": bound, "medians": medians,
                "spreads": spreads, "worse_by": drift, "pass": passed,
                "target": max(spreads) < bound / 3, "values": values,
            })
            print(f"{workload:18s} {name:13s} bound {bound:<5} "
                  f"median {' / '.join(f'{m:.5g}' for m in medians):24s} "
                  f"spread {' / '.join(f'{x:.3f}' for x in spreads):14s} "
                  f"worse_by {drift:+.3f} {'PASS' if passed else 'FAIL'}"
                  f"{'' if rows[-1]['target'] else ' (spread above bound/3)'}")
    return rows, ok


def traced_repeat(spec, args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    rows, ok = [], True
    for workload in workloads:
        a, b = (run_once(workload, FIRST_SEED, spec["run_seconds"], 1) for _ in range(2))
        same = {c: a["metrics"][c]["value"] == b["metrics"][c]["value"] for c in counts}
        passed = all(same.values()) and a["correct"] and b["correct"]
        ok &= passed
        rows.append({"workload": workload, "counts": {c: a["metrics"][c]["value"] for c in counts},
                     "repeat": same, "pass": passed})
        print(f"{workload:18s} counts repeat: {'PASS' if passed else 'FAIL'} "
              + ", ".join(f"{c}={a['metrics'][c]['value']}" for c in counts))
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--traced", action="store_true", help="check count repeatability instead")
    args = parser.parse_args(argv)
    if args.runs < 3 and not args.traced:
        parser.error("--runs must be at least 3 to take quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, ok = (traced_repeat if args.traced else steadiness)(spec, args)
    OUT.mkdir(exist_ok=True)
    name = "steady-traced.json" if args.traced else "steady.json"
    (OUT / name).write_text(json.dumps({"args": vars(args), "rows": rows, "ok": ok}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
