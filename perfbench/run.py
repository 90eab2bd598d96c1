#!/usr/bin/env python3
"""Build and run the VCODE benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
library and the benchmark under .bench_build/ (RelWithDebInfo, the
repository's default optimised build); later calls only rebuild what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Traced runs also write their spans
as a Chrome trace to .bench_build/traces/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["codegen", "dpf_dbt", "dpf_native", "service_churn"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no VCODE sources next to the benchmark "
            "(expected src/ at %s)" % ROOT)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            die("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        die("build failed")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def src_hash():
    """SHA-256 over every file under src/, so runs from checkouts that are
    not git repositories still identify the code they measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_bench(args):
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-hash", src_hash()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.call(cmd)


def last_json(output):
    return json.loads(output.strip().splitlines()[-1])


def self_test():
    """The benchmark's own tests, then the determinism check across two
    processes: same seed, same deterministic metrics, digit for digit."""
    if subprocess.call([os.path.join(BUILD, "perfbench_tests")]) != 0:
        return 1
    checks = [("codegen", "codegen.code_bytes_per_insn"),
              ("dpf_dbt", "dpf.sim_us_per_msg")]
    for workload, metric in checks:
        values = []
        for _ in range(2):
            out = subprocess.run(
                [os.path.join(BUILD, "perfbench"), "--workload", workload,
                 "--seed", "7", "--seconds", "2", "--trace", "1"],
                capture_output=True, text=True, timeout=180)
            if out.returncode != 0:
                print(out.stdout + out.stderr)
                return 1
            values.append(last_json(out.stdout)["metrics"][metric]["value"])
        same = values[0] == values[1] and values[0] > 0
        print("%s %s: %r %r -> %s" % (workload, metric, values[0], values[1],
                                      "repeats" if same else "DIFFERS"))
        if not same:
            return 1
    print("self-test ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        p.error("--seed must not be negative")
    build()
    sys.exit(self_test() if args.self_test else run_bench(args))


if __name__ == "__main__":
    main()
