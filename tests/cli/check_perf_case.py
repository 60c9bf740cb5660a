#!/usr/bin/env python3
"""Runs tools/check_perf.py on a crafted copy of BENCH_engine.json and
checks its verdict.

Each case builds a fresh report from a bench's own floor (a report that
meets it exactly), alters one thing, and expects the checker to pass, or to
exit 1 with a message naming what failed.

usage: check_perf_case.py CHECKER FLOOR CASE
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def report_from_floor(floors, bench):
    return {"bench": bench, **copy.deepcopy(floors[bench])}


def set_throughput(factor):
    def alter(fresh):
        fresh["engine"]["sim_s_per_wall_s"] *= factor
    return alter


def bump_exact(fresh):
    fresh["kernels"]["exact"]["trace_bytes"] += 1


def false_claim(fresh):
    claims = fresh["sweep"]["claims"]
    claims[next(iter(claims))] = False


def drop_block(fresh):
    del fresh["kernels"]


def drop_exact_key(fresh):
    del fresh["kernels"]["exact"]["dcqcn_flow_ticks_lazy"]


def unknown_bench(fresh):
    fresh["bench"] = "no_such_bench"


# case -> (alteration of perf_engine's floor, expected exit, stderr pattern)
CASES = {
    "exact_off_by_one_fails": (bump_exact, 1, "kernels.exact.trace_bytes"),
    "false_claim_fails": (false_claim, 1, "claim 'the pooled sweep"),
    "throughput_0_69_fails": (set_throughput(0.69), 1,
                              "engine.sim_s_per_wall_s"),
    "throughput_0_71_passes": (set_throughput(0.71), 0, ""),
    "missing_block_fails": (drop_block, 1, "block kernels missing"),
    "missing_exact_key_fails": (drop_exact_key, 1,
                                "kernels.exact.dcqcn_flow_ticks_lazy missing"),
    "unknown_bench_fails": (unknown_bench, 1, "'no_such_bench' has no floor"),
}


def main():
    checker, floor_path, case = sys.argv[1:4]
    with open(floor_path) as f:
        floors = json.load(f)
    if case.startswith("floor_passes_"):
        fresh = report_from_floor(floors, case[len("floor_passes_"):])
        want_rc, pattern = 0, ""
    else:
        alter, want_rc, pattern = CASES[case]
        fresh = report_from_floor(floors, "perf_engine")
        alter(fresh)
    with tempfile.TemporaryDirectory() as tmp:
        floor_copy = os.path.join(tmp, "floor.json")
        fresh_path = os.path.join(tmp, "fresh.json")
        with open(floor_copy, "w") as f:
            json.dump(floors, f)
        with open(fresh_path, "w") as f:
            json.dump(fresh, f)
        run = subprocess.run(
            [sys.executable, checker, fresh_path, "--floor", floor_copy],
            capture_output=True, text=True)
    if run.returncode != want_rc or pattern not in run.stderr:
        sys.exit(f"{case}: expected exit {want_rc} naming {pattern!r}, got "
                 f"{run.returncode}\nstdout: {run.stdout}\nstderr: "
                 f"{run.stderr}")
    print(f"{case}: exit {run.returncode} as expected")


if __name__ == "__main__":
    main()
