#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --repeat N [--workloads a,b] --seconds S
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first form builds perfbench with
CMake into $CARGO_TARGET_DIR (default .bench_build) and runs one
workload; the last line of its output is the result JSON.  --repeat
runs each workload N times on seeds 1..N and prints, per end-to-end
metric, the median, quartiles, min, max and the quartile spread as a
share of the median: the evidence the bounds in BENCHMARK.json are set
from.  --selftest builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["inproc_batch", "tcp_gemv", "esn_recurrent", "cold_churn"]


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(target):
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", target, "-j",
         str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result JSON.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", os.path.join(build_dir(), "scratch")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode != 0:
        if not echo:
            sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s seed %d exited %d" %
                 (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(binary, workloads, runs, seconds):
    # Seeds outer, workloads inner: every workload's runs span the same
    # stretch of host time, so a slow spell hits them alike.
    values = {w: {} for w in workloads}
    for seed in range(1, runs + 1):
        for workload in workloads:
            result = run_once(binary, workload, seed, seconds, 0, False)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, (metric["unit"], []))[
                    1].append(metric["value"])
    for workload in workloads:
        print("%s: %d runs, seeds 1..%d, %g s each" %
              (workload, runs, runs, seconds))
        print("  %-16s %12s %12s %12s %12s %12s %8s" %
              ("metric", "median", "q1", "q3", "min", "max", "iqr/med"))
        for name, (unit, vals) in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print("  %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%%  %s" %
                  (name, med, q1, q3, min(vals), max(vals), 100 * spread,
                   unit))
    sys.stdout.flush()


def main():
    # A terminated runner raises SystemExit inside subprocess.run, which
    # kills and reaps the running benchmark instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    binary = build("perfbench")
    if args.repeat > 0:
        repeat(binary, args.workloads.split(","), args.repeat, args.seconds)
    elif args.workload:
        run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                 True)
    else:
        parser.error("--workload, --repeat or --selftest is required")


if __name__ == "__main__":
    main()
