#!/usr/bin/env python3
"""Gate a bench's --json report against its floor in BENCH_engine.json.

perf_engine, s6_multi_bottleneck and s7_transport_zoo write one report
shape (bench::Report in bench/cli.h): {"bench": <name>, <block>: {...}},
where a block may hold sim_s_per_wall_s (its throughput tripwire), exact
(deterministic work counters) and claims (the outcome of each claim the
bench checks).  BENCH_engine.json keys each bench's floor blocks by the
bench's name, in the same shape.  One rule set applies to every bench:

  * every floor block, and every key it names, is in the fresh report;
  * every exact value equals the floor's;
  * every claim in the fresh report is true;
  * sim_s_per_wall_s is at least 70 % of the floor's.  CI hosts are shared
    and noisy, so this is a coarse tripwire for order-of-magnitude
    regressions (a disabled fast path, a debug build), not a benchmark.

Usage:
  python3 tools/check_perf.py fresh.json [--floor BENCH_engine.json]

Exits 0 when every rule holds, 1 otherwise, naming each failure.
"""

import argparse
import json
import os
import sys

TRIPWIRE = 0.70  # fresh sim_s_per_wall_s >= TRIPWIRE x floor


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_perf: FAIL: {path}: {e}")


def check(fresh, floors):
    """The failures of `fresh` against `floors`, and the tripwire lines."""
    bench = fresh.get("bench")
    if bench not in floors:
        return [f"bench {bench!r} has no floor"], []
    failures, lines = [], []
    for name, floor in floors[bench].items():
        block = fresh.get(name)
        if not isinstance(block, dict):
            failures.append(f"block {name} missing")
            continue
        for field in ("exact", "claims"):
            have = block.get(field, {})
            for key, want in floor.get(field, {}).items():
                if key not in have:
                    failures.append(f"{name}.{field}.{key} missing")
                elif field == "exact" and have[key] != want:
                    failures.append(
                        f"{name}.exact.{key} is {have[key]!r}, floor {want} "
                        "— the run's work changed; update the floor only "
                        "with a reason")
        if "sim_s_per_wall_s" in floor:
            have = block.get("sim_s_per_wall_s")
            limit = TRIPWIRE * floor["sim_s_per_wall_s"]
            if not isinstance(have, (int, float)):
                failures.append(f"{name}.sim_s_per_wall_s missing")
                continue
            lines.append(f"{name}: {have:.1f} sim-s/wall-s vs floor "
                         f"{floor['sim_s_per_wall_s']:.1f} (limit "
                         f"{limit:.1f})")
            if have < limit:
                failures.append(f"{name}.sim_s_per_wall_s {have:.1f} is "
                                f"below {limit:.1f}")
    for name, block in fresh.items():
        claims = block.get("claims", {}) if isinstance(block, dict) else {}
        failures += [f"{name}: claim '{statement}' is {json.dumps(holds)}"
                     for statement, holds in claims.items()
                     if holds is not True]
    return failures, lines


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("fresh", help="report written by a bench's --json")
    ap.add_argument("--floor",
                    default=os.path.join(os.path.dirname(__file__), os.pardir,
                                         "BENCH_engine.json"),
                    help="checked-in floors (default: BENCH_engine.json)")
    args = ap.parse_args()
    failures, lines = check(load(args.fresh), load(args.floor))
    for line in lines:
        print(f"check_perf: {line}")
    for failure in failures:
        print(f"check_perf: FAIL: {args.fresh}: {failure}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print("check_perf: OK")


if __name__ == "__main__":
    main()
