#!/usr/bin/env python3
"""Build and run the perfbench driver.

Benchmark mode (what BENCHMARK.json's command runs, from the repository root):

    python3 perfbench/run.py --workload hall-sweep --seed 1 --seconds 25 --trace 0

builds the driver from source into .bench_build/perfbench (cmake, RelWithDebInfo),
runs it, and passes its output through; the last line is the result JSON.

Spread mode, for setting and checking bounds from measurement:

    python3 perfbench/run.py --spread 5 --workload aged-hall [--seed 1] [--seconds 25]

runs the workload once per seed (seed, seed+1, ...) and prints each end-to-end
metric's quartile spread (Q3 - Q1) / median beside its bound in BENCHMARK.json.
With --trace 1 it runs the traced form k times on one seed instead and checks
that the exact per-layer counts repeat bit for bit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; build logs go to stderr."""
    if not (ROOT / "src" / "scenario" / "world.h").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "perfbench"


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs the driver; returns (exit code, stdout lines)."""
    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", str(spans_dir / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def spread_mode(args, binary):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace == 1:
        hashes = set()
        for k in range(args.spread):
            code, lines = run_once(binary, args.workload, args.seed, args.seconds, 1, False)
            digest = next((l.split()[-1] for l in lines if l.startswith("# counts_hash")), None)
            print(f"run {k + 1}: exit {code} correct {result_of(lines)['correct']} "
                  f"counts_hash {digest}")
            hashes.add(digest)
            if code != 0:
                return 1
        print("per-layer counts repeat exactly" if len(hashes) == 1
              else "per-layer counts DIFFER between runs")
        return 0 if len(hashes) == 1 else 1

    values = {}
    for k in range(args.spread):
        seed = args.seed + k
        code, lines = run_once(binary, args.workload, seed, args.seconds, 0, False)
        res = result_of(lines)
        if code != 0 or not res["correct"]:
            print(f"seed {seed}: output check failed")
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n} {m['value']:.6g}"
                                           for n, m in res["metrics"].items()))
    worst = 0
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        bound = metric["bound"]
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
        if metric["name"] != "setup_s" and spread > bound:
            worst = 1
        print(f"{metric['name']:16s} median {med:12.6g} spread {spread:7.2%} "
              f"bound {bound:5.0%} (target < {bound / 3:.1%}): {verdict}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measurement seconds (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spread", type=int, default=0, metavar="K",
                    help="run K times and report spreads instead of one result")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    binary = build()
    if args.spread > 0:
        return spread_mode(args, binary)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
