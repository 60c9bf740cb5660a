// Section 4/5: compatibility-aware job placement at cluster scale.
// A leaf-spine cluster receives a mix of jobs; we compare
//   (a) locality-only placement (today's schedulers) under fair sharing,
//   (b) locality-only placement + flow scheduling,
//   (c) compatibility-aware placement under fair sharing,
// reporting the per-job slowdown vs a dedicated network.  Cluster-level
// compatibility (§5) is exercised because jobs share different links with
// different neighbours; the flow scheduler solves each connected group on
// one unified circle.
#include <cstdio>

#include "bench/cli.h"
#include "cluster/experiment.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

JobRequest make_request(const char* name, int workers, std::int64_t period_ms,
                        std::int64_t compute_ms) {
  JobRequest r;
  r.name = name;
  r.workers = workers;
  r.profile = ModelZoo::synthetic(
      name, Duration::millis(compute_ms),
      Rate::gbps(42.5) * Duration::millis(period_ms - compute_ms));
  r.comm_profile = CommProfile::single_phase(name, Duration::millis(period_ms),
                                             Duration::millis(compute_ms),
                                             Rate::gbps(42.5));
  return r;
}

std::vector<JobRequest> workload() {
  // 5 racks x 3 hosts, single spine.  Three 4-worker jobs must span racks.
  // Locality placement ends up co-locating heavy (comm 0.6, period 90) with
  // lightC (comm 0.3, period 100) on rack 1's uplinks — an incompatible
  // pairing — while the compatibility-aware policy routes lightC next to
  // lightB (compatible) instead.
  return {
      make_request("heavy", 4, 90, 36),    // comm 0.60
      make_request("lightB", 4, 100, 70),  // comm 0.30
      make_request("lightC", 4, 100, 70),  // comm 0.30
      make_request("local1", 2, 120, 90),  // fits in a rack
  };
}

void report(const char* title, const ExperimentResult& result) {
  std::printf("---- %s ----\n", title);
  TextTable table({"job", "placed", "spans fabric", "iters", "mean ms",
                   "solo ms", "slowdown"});
  for (const auto& o : result.outcomes) {
    table.add_row({o.name, o.placed ? "yes" : "NO",
                   o.spans_fabric ? "yes" : "", std::to_string(o.iterations),
                   TextTable::num(o.mean_ms, 0), TextTable::num(o.solo_ms, 0),
                   TextTable::num(o.slowdown, 2) + "x"});
  }
  std::printf("%s", table.render().c_str());
  std::printf("mean slowdown %.2fx, max %.2fx; shared links: %zu\n\n",
              result.mean_slowdown(), result.max_slowdown(),
              result.placement.shared_links.size());
  for (const auto& sl : result.placement.shared_links) {
    std::printf("  link %d shared by jobs:", sl.link.value);
    for (const std::size_t j : sl.jobs) std::printf(" %zu", j);
    std::printf("  -> %s\n", sl.compatible ? "compatible" : "INCOMPATIBLE");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 10);
  const Topology topo =
      Topology::leaf_spine(5, 3, 1, Rate::gbps(50), Rate::gbps(50));
  std::printf("Section 4/5: scheduler comparison on a 5x3 leaf-spine "
              "cluster (%d s simulated per run)\n\n",
              seconds);

  ExperimentConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.run_time = Duration::seconds(seconds);

  {
    LocalityPlacement placement;
    report("(a) locality placement, fair sharing",
           run_cluster_experiment(topo, workload(), placement, cfg));
  }
  {
    LocalityPlacement placement;
    ExperimentConfig sched = cfg;
    sched.flow_schedule = true;
    report("(b) locality placement + flow scheduling (cluster-level "
           "unified circle)",
           run_cluster_experiment(topo, workload(), placement, sched));
  }
  {
    CompatibilityAwarePlacement placement;
    report("(c) compatibility-aware placement, fair sharing",
           run_cluster_experiment(topo, workload(), placement, cfg));
  }
  {
    CompatibilityAwarePlacement placement;
    ExperimentConfig sched = cfg;
    sched.flow_schedule = true;
    report("(d) compatibility-aware placement + flow scheduling",
           run_cluster_experiment(topo, workload(), placement, sched));
  }
  std::printf(
      "expected shape: (a) incompatible sharing slows heavy+lightC; (b) the "
      "scheduler cannot gate an incompatible group, so it matches (a); (c) "
      "placement moves the sharing onto a *compatible* pair — still paying "
      "fair-sharing costs — and (d) placement plus scheduling reaches 1.0x "
      "for every job: compatibility-aware placement and an interleaving "
      "mechanism only pay off together (the paper's §4 thesis).\n");
  return 0;
}
