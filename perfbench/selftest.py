#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload at a tenth of its
simulated length, once untraced and once traced, and checks that

  * every metric BENCHMARK.json names prints with its unit,
  * no run failed (runs_failed == 0) and the run reports itself correct,
  * both runs of a workload print the same digest.

    python3 perfbench/selftest.py        # from the root of a checkout

Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SCALE = 0.1


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--scale", str(SCALE)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines
                  if l.startswith("detail "))
    return proc.returncode, detail, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    failures = []
    for w in manifest["workloads"]:
        name = w["name"]
        digests = []
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, detail, result = run(name, trace)
            digests.append(detail["digest"])
            where = "%s --trace %d" % (name, trace)
            if code != 0 or not result["correct"]:
                failures.append("%s: not correct (exit %d)" % (where, code))
            if result["failed"] != 0 or detail["runs_failed"] != 0:
                failures.append("%s: runs_failed %d" % (where, result["failed"]))
            for m in manifest[group]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    failures.append("%s: metric %s missing or not in %s"
                                    % (where, m["name"], m["unit"]))
        if digests[0] != digests[1]:
            failures.append("%s: digests differ across runs: %s" % (name, digests))
        print("%-16s digests %s" % (name, " ".join(digests)), flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
