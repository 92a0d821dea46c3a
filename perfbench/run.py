#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench (with the ecohmem
libraries) under .bench_build/perfbench; later calls only rebuild what
changed. The benchmark binary then runs the workload in its own process
and prints the result JSON as the last line of standard output.

--smoke runs every workload named in BENCHMARK.json once at tiny size,
traced and untraced, and checks that each prints exactly the metric
names and units BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run may take its measuring time three times over (warm-up, traced
# layer passes, serve's probe sessions) plus this much for set-up.
SETUP_MARGIN_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])


def run_workload(args, seconds):
    """Runs the binary, relaying its stdout; returns (exit code, stdout)."""
    timeout = 3 * seconds + SETUP_MARGIN_S
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: run timed out after %g s" % timeout)
        return 1, ""
    return proc.returncode, out


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, out = run_workload(["--workload", workload, "--seed", "1", "--seconds", "1",
                                      "--trace", str(trace), "--smoke"], 1)
            problems = []
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
                problems.append("no result line")
            if code != 0:
                problems.append("exit code %d" % code)
            if result is not None:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append("result keys %s" % sorted(result))
                elif not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append("correct=%s attempted=%s failed=%s" % (
                        result["correct"], result["attempted"], result["failed"]))
                else:
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    if got != expected[trace]:
                        missing = sorted(set(expected[trace]) - set(got))
                        extra = sorted(set(got) - set(expected[trace]))
                        units = sorted(k for k in got if k in expected[trace]
                                       and got[k] != expected[trace][k])
                        problems.append("missing %s extra %s unit mismatch %s" % (
                            missing, extra, units))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-14s trace=%d %s" % (workload, trace, status), flush=True)
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    if not build():
        log("perfbench: build failed (is this the root of an ecohmem checkout?)")
        return 1
    if args.smoke:
        return smoke()
    code, out = run_workload(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", repr(args.seconds), "--trace", args.trace],
                             args.seconds)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
