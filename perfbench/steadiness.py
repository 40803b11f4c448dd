#!/usr/bin/env python3
"""Steadiness report and per-layer diff for the tick-anatomy benchmark.

Run k times and summarize each metric (to set bounds from data):

    python3 perfbench/steadiness.py report --workload market --runs 5 \
        --seconds 20 --trace 0 --out market_e2e.jsonl

prints, per metric, the median, the quartiles (statistics.quantiles,
n=4), the interquartile spread and (max - min) / median. Seed i of the k
runs is --seed-base + i. With --out, every run's result is appended as one
JSON line {"workload", "seed", "trace", "result"}.

Compare two result sets (for example parent vs change, same seeds):

    python3 perfbench/steadiness.py diff parent.jsonl change.jsonl

prints, per workload and metric, both medians and the change. Metrics
that are deterministic counts must repeat exactly for a seed; any drift
in one is reported as a behaviour change, never as noise, and makes the
diff exit 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Count metrics that depend on timing (worker scheduling, shard skew) or
# on the run length rather than on the seed alone.
TIMING_DEPENDENT = {"async.fallback_runs", "telemetry.dropped_spans"}
DETERMINISTIC_UNITS = {"count", "bytes", "ratio"}


def deterministic(name, unit):
    return unit in DETERMINISTIC_UNITS and name not in TIMING_DEPENDENT


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    iqr = (q3 - q1) / med if med else 0.0
    rng = (max(values) - min(values)) / med if med else 0.0
    return med, q1, q3, iqr, rng


def report(args):
    rows = []
    for i in range(args.runs):
        seed = args.seed_base + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        rows.append({"workload": args.workload, "seed": seed,
                     "trace": args.trace, "result": result})
        print(f"run {i + 1}/{args.runs} seed {seed}: correct="
              f"{result['correct']} failed={result['failed']}",
              file=sys.stderr)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(rows[-1]) + "\n")
    names = list(rows[0]["result"]["metrics"])
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'range/med':>9}")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in rows]
        med, q1, q3, iqr, rng = summarize(values)
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{iqr:8.3f} {rng:9.3f}")
    return 0 if all(r["result"]["correct"] for r in rows) else 1


def load(path):
    sets = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                sets.setdefault(row["workload"], []).append(row)
    return sets


def diff(args):
    a_sets, b_sets = load(args.a), load(args.b)
    changed = False
    for workload in sorted(set(a_sets) & set(b_sets)):
        a_rows, b_rows = a_sets[workload], b_sets[workload]
        print(f"== {workload}")
        names = [n for n in a_rows[0]["result"]["metrics"]
                 if n in b_rows[0]["result"]["metrics"]]
        for name in names:
            unit = a_rows[0]["result"]["metrics"][name]["unit"]
            a_vals = [r["result"]["metrics"][name]["value"] for r in a_rows]
            b_vals = [r["result"]["metrics"][name]["value"] for r in b_rows]
            a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
            change = (b_med / a_med - 1.0) * 100.0 if a_med else 0.0
            note = ""
            if deterministic(name, unit):
                a_by_seed = {r["seed"]: r["result"]["metrics"][name]["value"]
                             for r in a_rows}
                drift = sorted(
                    r["seed"] for r in b_rows if r["seed"] in a_by_seed and
                    r["result"]["metrics"][name]["value"] != a_by_seed[r["seed"]])
                if drift:
                    note = f"BEHAVIOUR CHANGE (seeds {drift})"
                    changed = True
                else:
                    note = "exact"
            print(f"  {name:32} {a_med:14.6g} {b_med:14.6g} "
                  f"{change:+8.2f}% {unit:6} {note}")
    return 1 if changed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("report", help="run one workload k times")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=5)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--seconds", type=float, default=20.0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out")
    d = sub.add_parser("diff", help="per-layer diff of two result sets")
    d.add_argument("a")
    d.add_argument("b")
    args = p.parse_args()
    return report(args) if args.cmd == "report" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
