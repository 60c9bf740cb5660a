#!/usr/bin/env python3
"""The repo benchmark: builds perfbench_driver from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload cluster-oversub|zoo-dumbbell|traced-resume
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout.  Every line but the last is for people:
host and build, each metric with its quartiles and sample count, and the
driver's full JSON.  The last line is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics of BENCHMARK.json and --trace 1 the per-layer ones.

Correctness: every pass of a run must give the same digest (plain and
probed passes alike), no run may fail, and at the default seed and full
size the digest must equal the one stored in expected_digests.json.
--scale shrinks the simulated horizons for the self-test; stored digests
apply only at scale 1.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
BUILD_TYPE = "Release"
RUN_LIMIT_S = 170  # the whole command must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(build_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def check(manifest, detail, args):
    """Returns the list of problems with the driver's output."""
    problems = list(detail["errors"])
    if detail["runs_failed"]:
        problems.append("%d runs failed" % detail["runs_failed"])
    if detail["digest"] == "UNSTABLE":
        problems.append("passes disagree: digests %s" % detail["digests"])
    if args.seed == DEFAULT_SEED and args.scale == 1.0:
        with open(os.path.join(HERE, "expected_digests.json")) as f:
            want = json.load(f)["digests"][args.workload]
        if detail["digest"] != want:
            problems.append("digest %s, stored %s for seed %d"
                            % (detail["digest"], want, DEFAULT_SEED))
    for group in ("end_to_end", "per_layer"):
        for m in manifest[group]:
            got = detail[group].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                problems.append("metric %s missing or not in %s"
                                % (m["name"], m["unit"]))
            elif not isinstance(got["value"], (int, float)) or \
                    not math.isfinite(got["value"]):
                problems.append("metric %s is not a number" % m["name"])
            elif group == "end_to_end" and got["value"] <= 0:
                problems.append("metric %s is not positive" % m["name"])
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cluster-oversub", "zoo-dumbbell", "traced-resume"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    build_dir = os.path.join(build_root(), "perfbench-" + BUILD_TYPE.lower())
    if not build(build_dir):
        log("perfbench: build failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale),
           "--workdir", os.path.join(build_root(), "perfbench-work")]
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, 1), cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: driver did not finish within %.0f s" % budget)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        log("perfbench: driver exited with %d" % proc.returncode)
        return 1
    detail = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = check(manifest, detail, args)
    host = detail["host"]
    build_tag = "%s, %s" % (host["build_type"], host["compiler"])
    print("perfbench %s seed %d: %d plain + %d probed passes, %d runs, "
          "%d failed, digest %s" % (
              args.workload, args.seed, detail["passes"]["plain"],
              detail["passes"]["probed"], detail["runs"],
              detail["runs_failed"], detail["digest"]))
    print("host: nproc %d, hardware_concurrency %d; build: %s" % (
        host["nproc"], host["hardware_concurrency"], build_tag))
    group = "per_layer" if args.trace else "end_to_end"
    for m in manifest[group]:
        got = detail[group].get(m["name"])
        if got is not None:
            print("  %-46s %14.6g %-8s [q1 %.6g, q3 %.6g, n %d] (%s)" % (
                m["name"], got["value"], got["unit"], got["q1"], got["q3"],
                got["n"], host["build_type"]))
    for p in problems:
        print("  PROBLEM: " + p)
    print("detail " + json.dumps(detail))
    result = {
        "correct": not problems,
        "attempted": max(1, detail["runs"]),
        "failed": detail["runs_failed"],
        "metrics": {m["name"]: {"value": detail[group][m["name"]]["value"],
                                "unit": m["unit"]}
                    for m in manifest[group] if m["name"] in detail[group]},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
