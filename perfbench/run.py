#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--record PATH]

Run from the repository root.  The first run configures and builds the
library and the benchmark binary (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild incrementally.  Prints
the metrics as a table with sample counts and quartiles, the host
fingerprint, and as the last line the result object
{"correct", "attempted", "failed", "metrics"}.  The full run record
(fingerprint, quartiles, failures) is written to PATH, by default under
.bench_runs/.  See perfbench/README.md.
"""
import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify_reduced", "verify_bounded")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the perfbench target; output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-256 over the library sources: names the code under test even in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(os.path.dirname(HERE), "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(probe_ms, build_type):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "build_type": build_type,
        "commit": commit,
        "source_sha256": source_digest(),
        "host_probe_ms": {"start": probe_ms[0], "end": probe_ms[1]},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="where to write the full run record")
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    runs_dir = os.path.abspath(".bench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(runs_dir, base + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench printed no result")
        return 1
    raw = json.loads(lines[-1])

    # The mode's metrics are the ones BENCHMARK.json names; end-to-end
    # metrics are measured with tracing off, per-layer ones in the traced run.
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["per_layer" if args.trace
                                       else "end_to_end"]]
    metrics = {name: raw["metrics"][name] for name in names
               if name in raw["metrics"]}
    for name in names:
        if name not in metrics:
            raw["failed"] += 1
            raw["correct"] = False
            raw["failures"].append(f"metric missing: {name}")

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(raw["probe_ms"], raw["build_type"]),
        "correct": raw["correct"], "attempted": raw["attempted"],
        "failed": raw["failed"], "failures": raw["failures"],
        "metrics": metrics,
    }
    record_path = args.record or os.path.join(runs_dir, base + ".json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:8s} "
              f"n={m['n']:<4d} q1={m['q1']:.6g} q3={m['q3']:.6g}")
    print(f"failed {raw['failed']} of {raw['attempted']} operations")
    for what in raw["failures"]:
        print(f"  FAILED: {what}")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
