#!/usr/bin/env python3
"""Perf smoke gate: compare a fresh bench --json run to the checked-in
floor in BENCH_engine.json.

CI hosts are shared and noisy, so this is deliberately a coarse tripwire,
not a benchmark: the fresh run's sim_s_per_wall_s may be up to
--tolerance (default 30%) below the checked-in figure before the gate
fails.  Catches order-of-magnitude regressions (an accidentally disabled
fused path, a debug build, a hot-loop pessimization) while staying quiet
under normal scheduling jitter.

Three sections are understood, chosen with --section:
  engine (default)  — perf_engine --json output; also re-asserts the
    contract that makes speed claims meaningful: if either file's sweep
    block says bit_identical is false, the run fails regardless of
    throughput.  kernels.trace_events and kernels.trace_bytes (the JSONL
    lines and bytes of one traced 4-sim-s run) and
    kernels.maxmin_allocations (the allocations the ideal max-min policy
    computes over one 4-sim-s dumbbell run), all deterministic work
    counters, must equal the floor's exactly.
  multi_bottleneck  — s6_multi_bottleneck --json output; additionally
    requires graph_wins (compat-graph strictly below both baselines on
    mean completion slowdown) and deterministic to be true in the fresh
    run — the bench's correctness claims are gated alongside its speed —
    and solver.evaluations (rotation assignments scored, a deterministic
    work counter) to equal the floor's exactly, whatever the host noise.
  transport_zoo     — s7_transport_zoo --json output; additionally
    requires deterministic (repeated run fingerprints byte-identically)
    and catalogue_complete (every registered transport name round-trips
    through the factory) to be true, and a non-empty families block.

Usage:
  python3 tools/check_perf.py fresh.json [--floor BENCH_engine.json]
                                         [--tolerance 0.30]
                                         [--section engine|multi_bottleneck|
                                                    transport_zoo]

Exits 0 when fresh throughput >= floor * (1 - tolerance) and the
section's correctness flags hold, 1 otherwise.
"""

import argparse
import json
import os
import sys


def fail(msg):
    print(f"check_perf: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def throughput(doc, path, section):
    try:
        v = doc[section]["sim_s_per_wall_s"]
    except (KeyError, TypeError):
        fail(f"{path}: missing {section}.sim_s_per_wall_s")
    if not isinstance(v, (int, float)) or v <= 0:
        fail(f"{path}: {section}.sim_s_per_wall_s must be positive, got {v!r}")
    return float(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="JSON written by perf_engine --json")
    ap.add_argument("--floor",
                    default=os.path.join(os.path.dirname(__file__), os.pardir,
                                         "BENCH_engine.json"),
                    help="checked-in reference (default: repo BENCH_engine.json)")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional drop below the floor (default 0.30)")
    ap.add_argument("--section", default="engine",
                    choices=["engine", "multi_bottleneck", "transport_zoo"],
                    help="which JSON block to gate (default: engine)")
    args = ap.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        fail(f"--tolerance must be in [0, 1), got {args.tolerance}")

    fresh = load(args.fresh)
    floor = load(args.floor)
    if args.section == "engine":
        for doc, path in ((fresh, args.fresh), (floor, args.floor)):
            ident = doc.get("sweep", {}).get("bit_identical")
            if ident is not True:
                fail(f"{path}: sweep.bit_identical is {ident!r}, not true — "
                     "determinism broken, throughput numbers are meaningless")
        for key in ("trace_events", "trace_bytes", "maxmin_allocations"):
            want = floor.get("kernels", {}).get(key)
            have = fresh.get("kernels", {}).get(key)
            if not isinstance(want, int):
                fail(f"{args.floor}: kernels.{key} missing")
            if have != want:
                fail(f"{args.fresh}: kernels.{key} is {have!r}, floor {want} "
                     "— the run's work changed; update the floor only with "
                     "a reason")
    elif args.section == "multi_bottleneck":
        block = fresh.get("multi_bottleneck", {})
        for flag in ("graph_wins", "deterministic"):
            if block.get(flag) is not True:
                fail(f"{args.fresh}: multi_bottleneck.{flag} is "
                     f"{block.get(flag)!r}, not true — the oversubscription "
                     "sweep's correctness claim does not hold")
        want = floor.get("multi_bottleneck", {}).get("solver", {}) \
            .get("evaluations")
        have = block.get("solver", {}).get("evaluations")
        if not isinstance(want, int):
            fail(f"{args.floor}: multi_bottleneck.solver.evaluations missing")
        if have != want:
            fail(f"{args.fresh}: multi_bottleneck.solver.evaluations is "
                 f"{have!r}, floor {want} — the solver's work changed; "
                 "update the floor only with a reason")
    else:
        block = fresh.get("transport_zoo", {})
        for flag in ("deterministic", "catalogue_complete"):
            if block.get(flag) is not True:
                fail(f"{args.fresh}: transport_zoo.{flag} is "
                     f"{block.get(flag)!r}, not true — the transport "
                     "catalogue's reproducibility claim does not hold")
        families = block.get("families")
        if not isinstance(families, dict) or not families:
            fail(f"{args.fresh}: transport_zoo.families must be a non-empty "
                 "object (one entry per transport family)")

    have = throughput(fresh, args.fresh, args.section)
    want = throughput(floor, args.floor, args.section)
    limit = want * (1.0 - args.tolerance)
    verdict = "OK" if have >= limit else "FAIL"
    print(f"check_perf: {verdict}: fresh {have:.1f} sim-s/wall-s vs floor "
          f"{want:.1f} (limit {limit:.1f}, tolerance {args.tolerance:.0%})",
          file=sys.stderr if verdict == "FAIL" else sys.stdout)
    if have < limit:
        sys.exit(1)


if __name__ == "__main__":
    main()
