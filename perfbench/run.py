#!/usr/bin/env python3
"""Build and run the tcemin benchmark (perfbench).

Run from the root of a checkout.  Every mode first builds the benchmark
from source with CMake (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; the build is incremental, so only the first run compiles.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of workload W (plan-cold, search-deep, serve-mix, execute).
      Prints every metric by name with its unit; the last line of stdout
      is the result object {"correct", "attempted", "failed", "metrics"}.
      --corrupt damages one output so that its check must fail.

  python3 perfbench/run.py --steady [--runs 10] [--sets 1] [--seconds S]
                           [--workloads a,b] [--first-seed K]
      The steadiness check: runs every workload --runs times with seeds
      K, K+1, ..., alternating the workload order from round to round,
      and prints per end-to-end metric the median, the quartiles and the
      spread (q3 - q1) / median against the metric's bound in
      BENCHMARK.json.  With --sets 2 it repeats the whole thing and also
      compares the second set's medians with the first's.

  python3 perfbench/run.py --self-test
      Runs every workload with --corrupt and checks that exactly one
      operation is reported failed.

  python3 perfbench/run.py --unit-tests
      Builds and runs the benchmark's own unit tests, and checks that
      BENCHMARK.json lists exactly the metrics the program prints.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SRC_DIR = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(SRC_DIR), "BENCHMARK.json")
WORKLOADS = ["plan-cold", "search-deep", "serve-mix", "execute"]


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(targets):
    """Configures (once) and builds \\p targets; build logs go to stderr."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SRC_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, check=False)
        if r.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def run_once(binary, workload, seed, seconds, trace, corrupt=False,
             capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", os.path.join(build_dir(), "work")]
    if corrupt:
        cmd.append("--corrupt")
    r = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                       check=False, text=True)
    if not capture:
        return r.returncode, None
    result = None
    if r.returncode == 0 and r.stdout.strip():
        result = json.loads(r.stdout.strip().splitlines()[-1])
    return r.returncode, result


def load_bounds():
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def worse_by(metric, first, second):
    """Relative change of \\p second against \\p first in the bad direction."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def steady(binary, args):
    spec, bounds = load_bounds()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    sets = []
    ok = True
    for s in range(args.sets):
        values = {w: {} for w in workloads}
        failed_share = {w: set() for w in workloads}
        for r in range(args.runs):
            order = workloads if r % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = args.first_seed + r
                code, res = run_once(binary, w, seed, seconds, 0,
                                     capture=True)
                if code != 0 or res is None or not res["correct"]:
                    print("set %d run %d %s seed %d: FAILED (exit %d)"
                          % (s + 1, r + 1, w, seed, code))
                    ok = False
                    continue
                failed_share[w].add(res["failed"] / res["attempted"])
                if res["failed"] != 0:
                    print("set %d run %d %s seed %d: %d of %d operations "
                          "failed" % (s + 1, r + 1, w, seed, res["failed"],
                                      res["attempted"]))
                    ok = False
                for name, m in res["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                print("set %d run %d %s seed %d: %s" % (
                    s + 1, r + 1, w, seed,
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in res["metrics"].items())),
                    flush=True)
        print("\nset %d: %d runs of %d s per workload" % (s + 1, args.runs,
                                                          seconds))
        print("%-12s %-14s %12s %12s %12s %8s %6s  %s" % (
            "workload", "metric", "median", "q1", "q3", "spread", "bound",
            "verdict"))
        medians = {}
        for w in workloads:
            if len(failed_share[w]) > 1:
                print("%-12s failed share differs between runs: %s"
                      % (w, sorted(failed_share[w])))
                ok = False
            for name, vals in values[w].items():
                if len(vals) < 4:
                    continue
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds[name]["bound"]
                if spread > bound:
                    verdict = "OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    verdict = "over bound/3"
                else:
                    verdict = "ok"
                medians[(w, name)] = med
                print("%-12s %-14s %12.6g %12.6g %12.6g %8.4f %6.3f  %s" % (
                    w, name, med, q1, q3, spread, bound, verdict))
        sets.append(medians)
    if len(sets) >= 2:
        print("\nsecond set against the first (worse-by as a share of the "
              "first median)")
        for key, first in sets[0].items():
            if key not in sets[1]:
                continue
            w, name = key
            metric = bounds[name]
            change = worse_by(metric, first, sets[1][key])
            verdict = "ok" if change <= metric["bound"] else "OVER BOUND"
            ok = ok and verdict == "ok"
            print("%-12s %-14s %12.6g %12.6g %+8.4f %6.3f  %s" % (
                w, name, first, sets[1][key], change, metric["bound"],
                verdict))
    return 0 if ok else 1


def self_test(binary):
    ok = True
    for w in WORKLOADS:
        code, res = run_once(binary, w, 1, 1, 0, corrupt=True, capture=True)
        good = (code == 0 and res is not None and res["failed"] == 1
                and res["correct"])
        print("%-12s corrupted one output: exit %d, failed %s of %s -> %s" % (
            w, code, res and res["failed"], res and res["attempted"],
            "ok" if good else "CHECKS MISSED IT"))
        ok = ok and good
    return 0 if ok else 1


def unit_tests():
    binary = build(["perfbench", "perfbench_tests"])
    tests = os.path.join(build_dir(), "perfbench_tests")
    code = subprocess.run([tests], check=False).returncode
    listed = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    printed = {}
    for line in listed:
        if line:
            kind, name, unit, better = line.split()
            printed.setdefault(kind, []).append(
                {"name": name, "unit": unit, "better": better})
    spec, _ = load_bounds()
    for kind in ("end_to_end", "per_layer"):
        declared = [{k: m[k] for k in ("name", "unit", "better")}
                    for m in spec[kind]]
        if declared != printed.get(kind):
            print("BENCHMARK.json %s differs from what perfbench prints"
                  % kind)
            code = 1
    if code == 0:
        print("BENCHMARK.json lists exactly the metrics perfbench prints")
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--unit-tests", action="store_true")
    args = p.parse_args()

    if args.unit_tests:
        return unit_tests()
    binary = build(["perfbench"])
    if args.steady:
        return steady(binary, args)
    if args.self_test:
        return self_test(binary)
    if (args.workload is None or args.seed is None or args.seconds is None
            or args.trace is None):
        p.error("--workload, --seed, --seconds and --trace are required")
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, corrupt=args.corrupt)
    return code


if __name__ == "__main__":
    sys.exit(main())
