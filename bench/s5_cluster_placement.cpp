// Section 4/5: compatibility-aware job placement at cluster scale.
// A leaf-spine cluster receives a mix of jobs; we compare
//   (a) locality-only placement (today's schedulers) under fair sharing,
//   (b) locality-only placement + flow scheduling,
//   (c) compatibility-aware placement under fair sharing,
//   (d) compatibility-aware placement + flow scheduling,
// reporting the per-job slowdown vs a dedicated network.  Each configuration
// runs through the orchestrator: every job arrives at t=0 and trains past
// the horizon, so the job set is static.  Cluster-level compatibility (§5) is
// exercised because jobs share different links with different neighbours;
// the flow scheduler gives each job one rotation across every link it
// crosses.
#include <cstdio>

#include "bench/cli.h"
#include "orch/orchestrator.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

JobArrival arrival(const char* name, int workers, std::int64_t period_ms,
                   std::int64_t compute_ms, Duration service) {
  JobRequest r;
  r.name = name;
  r.workers = workers;
  r.profile = ModelZoo::synthetic(
      name, Duration::millis(compute_ms),
      Rate::gbps(42.5) * Duration::millis(period_ms - compute_ms));
  r.comm_profile = CommProfile::single_phase(name, Duration::millis(period_ms),
                                             Duration::millis(compute_ms),
                                             Rate::gbps(42.5));
  return {TimePoint::origin(), service, std::move(r)};
}

ArrivalSchedule workload(Duration service) {
  // 5 racks x 3 hosts, single spine.  Three 4-worker jobs must span racks.
  // Locality placement takes the first ToR pair that fits, chaining heavy
  // (comm 0.6, period 90) to lightB (comm 0.3, period 100) on rack 1's
  // uplinks and lightB to lightC on rack 2's; the compatibility-aware
  // policy keeps heavy's uplinks to itself and puts lightB next to lightC
  // (a compatible pair).
  return {{
      arrival("heavy", 4, 90, 36, service),    // comm 0.60
      arrival("lightB", 4, 100, 70, service),  // comm 0.30
      arrival("lightC", 4, 100, 70, service),  // comm 0.30
      arrival("local1", 2, 120, 90, service),  // fits in a rack
  }};
}

void report(const char* title, const ClusterRunReport& result) {
  std::printf("---- %s ----\n", title);
  TextTable table({"job", "state", "spans fabric", "iters", "mean ms",
                   "solo ms", "slowdown"});
  for (const auto& o : result.jobs) {
    table.add_row({o.name, to_string(o.state), o.spans_fabric ? "yes" : "",
                   std::to_string(o.iterations), TextTable::num(o.mean_ms, 0),
                   TextTable::num(o.solo_ms, 0),
                   TextTable::num(o.slowdown, 2) + "x"});
  }
  std::printf("%s", table.render().c_str());
  std::printf("mean slowdown %.2fx, max %.2fx\n\n", result.mean_slowdown(),
              result.max_slowdown());
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

  const auto run = [&](const char* title, AdmissionPolicyKind placement,
                       bool flow_schedule) {
    OrchestratorConfig cfg;
    cfg.policy = PolicyKind::kMaxMinFair;
    cfg.horizon = Duration::seconds(seconds);
    cfg.admission.policy = placement;
    cfg.flow_schedule = flow_schedule;
    const ClusterRunReport r =
        Orchestrator(topo, workload(cfg.horizon * 2), cfg).run();
    report(title, r);
    return r;
  };
  const auto a = run("(a) locality placement, fair sharing",
                     AdmissionPolicyKind::kLocalityOnly, false);
  const auto b = run("(b) locality placement + flow scheduling (cluster-level "
                     "interference graph)",
                     AdmissionPolicyKind::kLocalityOnly, true);
  const auto c = run("(c) compatibility-aware placement, fair sharing",
                     AdmissionPolicyKind::kCompatibilityAware, false);
  const auto d = run("(d) compatibility-aware placement + flow scheduling",
                     AdmissionPolicyKind::kCompatibilityAware, true);
  // (a) heavy's incompatible sharing with lightB slows the whole
  // heavy-lightB-lightC chain; (c) placement moves the sharing onto a
  // compatible pair, still paying fair-sharing costs.  Placement and an
  // interleaving mechanism only pay off together (the paper's §4 thesis).
  bench::Claims claims;
  claims.within("(b) cannot gate an incompatible group: mean, max = (a)'s",
                {b.mean_slowdown() - a.mean_slowdown(),
                 b.max_slowdown() - a.max_slowdown()}, 0, 0);
  claims.within("(c) mean slowdown at most (a)'s", {c.mean_slowdown()}, 0,
                a.mean_slowdown());
  claims.within("(d) 1.00x mean and max slowdown",
                {d.mean_slowdown(), d.max_slowdown()}, 0, 1.005);
  return claims.exit_code();
}
