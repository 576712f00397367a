#!/usr/bin/env python3
"""Steadiness report for the repository benchmark.

    python3 perfbench/steadiness.py run SET_DIR [--runs 10] [--first-seed 1]
    python3 perfbench/steadiness.py compare SET_A SET_B

`run` makes one set: --runs untraced runs of every workload BENCHMARK.json
names, each with its own seed, through perfbench/run.py, keeping every run
record in SET_DIR.

`compare` prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles(values, n=4)), n and the spread
(q3 - q1) / median of each set, plus the host probe so a drift episode is
visible.  It says whether the two sets agree within the bounds of
BENCHMARK.json: every spread within its bound, and the second median within
the bound of the first in either direction.  Spreads under a third of the
bound are marked steady.  Exits 1 when the sets disagree.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_set(args):
    bench = load_benchmark()
    os.makedirs(args.set_dir, exist_ok=True)
    for workload in [w["name"] for w in bench["workloads"]]:
        for i in range(args.runs):
            seed = args.first_seed + i
            record = os.path.join(args.set_dir, f"{workload}-seed{seed}.json")
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0",
                   "--record", record]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0]}",
                  flush=True)
            if proc.returncode != 0:
                return 1
    return 0


def load_set(set_dir):
    """{workload: [record, ...]} for the untraced records in set_dir."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(set_dir, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def compare(args):
    bench = load_benchmark()
    sets = [load_set(args.set_a), load_set(args.set_b)]
    agree = True
    for workload in [w["name"] for w in bench["workloads"]]:
        per_set = [s.get(workload, []) for s in sets]
        if not all(len(runs) >= 2 for runs in per_set):
            print(f"{workload}: fewer than two runs in a set; skipped")
            agree = False
            continue
        print(f"\n== {workload}  " + "  ".join(
            f"set {i + 1}: {len(r)} runs, failed "
            f"{sum(x['failed'] for x in r)}/{sum(x['attempted'] for x in r)}"
            for i, r in enumerate(per_set)))
        for i, runs in enumerate(per_set):
            probes = [r["fingerprint"]["host_probe_ms"] for r in runs]
            s = summarize([p["start"] for p in probes])
            e = summarize([p["end"] for p in probes])
            print(f"   host probe set {i + 1}: start median {s['median']:.2f} "
                  f"ms (q1 {s['q1']:.2f}, q3 {s['q3']:.2f}), end median "
                  f"{e['median']:.2f} ms")
            if any(not r["correct"] for r in runs):
                agree = False
        print(f"   {'metric':22s} {'set':>3s} {'n':>3s} {'median':>14s} "
              f"{'q1':>14s} {'q3':>14s} {'spread':>7s} {'bound':>6s}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for i, runs in enumerate(per_set):
                values = [r["metrics"][name]["value"] for r in runs
                          if name in r["metrics"]]
                if len(values) < 2:
                    print(f"   {name:22s} {i + 1:3d} missing")
                    agree = False
                    stats.append(None)
                    continue
                st = summarize(values)
                stats.append(st)
                ok = st["spread"] <= bound
                mark = "steady" if st["spread"] < bound / 3 else (
                    "ok" if ok else "TOO WIDE")
                agree &= ok
                print(f"   {name:22s} {i + 1:3d} {st['n']:3d} "
                      f"{st['median']:14.6g} {st['q1']:14.6g} "
                      f"{st['q3']:14.6g} {st['spread']:7.3f} {bound:6.2f} "
                      f"{mark}")
            if None not in stats:
                # Two sets of the same code must agree both ways: set 2 may
                # be neither worse nor better than set 1 by more than bound.
                a, b = stats[0]["median"], stats[1]["median"]
                change = (b - a) / a if a else float("inf")
                worse = change if m["better"] == "lower" else -change
                ok = abs(change) <= bound
                agree &= ok
                print(f"   {name:22s} set 2 vs set 1: median {change:+.3f} "
                      f"({'worse' if worse > 0 else 'better'}; "
                      f"{'agree' if ok else 'DISAGREE'})")
    print("\nsets agree within the bounds" if agree else
          "\nsets do NOT agree within the bounds")
    return 0 if agree else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="make one set of untraced runs")
    r.add_argument("set_dir")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    c = sub.add_parser("compare", help="compare two sets")
    c.add_argument("set_a")
    c.add_argument("set_b")
    args = ap.parse_args()
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
