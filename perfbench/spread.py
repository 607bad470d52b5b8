#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs each workload on several seeds
and prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median of the values, as statistics.quantiles(values, n=4)
gives them, next to the metric's bound in BENCHMARK.json, and the same
spread of the values before the host-speed adjustment (see host.go).
Every bounded metric, setup_s included, is flagged OVER BOUND when its
spread exceeds the bound.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --seconds 20 [--workload table3-sweep ...]
    python3 perfbench/spread.py --runs 10 --first-seed 201 --baseline .bench_build/setA.jsonl --out .bench_build/setB.jsonl

Seeds are first_seed, first_seed+1, ...; each run's result line and its
unadjusted values are kept in --out (JSON lines). With --baseline, an
earlier --out file, each median is also compared with the baseline's, and
a metric whose median got worse by more than its bound is flagged WORSE.
The exit code is 1 when any run failed or any metric was flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys


def spread(v):
    med = statistics.median(v)
    if len(v) < 2 or not med:
        return float("nan")
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / med


def load(path):
    """Values per (workload, metric) of an earlier --out file."""
    values = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            for name, m in r["metrics"].items():
                values.setdefault((r["workload"], name), []).append(m["value"])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", default=".bench_build/spread.jsonl")
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    defs = {m["name"]: m for m in bench["end_to_end"]}
    base = load(args.baseline) if args.baseline else {}

    ok = True
    with open(args.out, "w") as out:
        for w in workloads:
            values, raw = {}, {}
            for i in range(args.runs):
                seed = args.first_seed + i
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or len(lines) < 2:
                    print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                    ok = False
                    continue
                res = json.loads(lines[-1])
                unadj = json.loads(lines[-2])
                out.write(json.dumps({"workload": w, "seed": seed, **res, **unadj}) + "\n")
                out.flush()
                if not res["correct"] or res["failed"]:
                    print(f"{w} seed {seed}: not correct: {res}", file=sys.stderr)
                    ok = False
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    raw.setdefault(name, []).append(unadj["unadjusted"][name]["value"])
            print(f"== {w} ({len(next(iter(values.values()), []))} runs, {seconds}s)")
            for name in sorted(values):
                v, d = values[name], defs.get(name, {})
                med, s, b = statistics.median(v), spread(v), d.get("bound")
                line = f"  {name:16s} median {med:11.5g}  spread {s:6.3f}  unadjusted {spread(raw[name]):6.3f}  bound {b}"
                if b is not None and not s <= b:
                    line += "  OVER BOUND"
                    ok = False
                if (w, name) in base:
                    bmed = statistics.median(base[(w, name)])
                    change = med / bmed - 1
                    worse = change if d.get("better") == "lower" else -change
                    line += f"  vs baseline {change:+.3f}"
                    if b is not None and worse > b:
                        line += "  WORSE"
                        ok = False
                print(line)
            sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
