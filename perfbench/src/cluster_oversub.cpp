// cluster-oversub: the online orchestrator on the s6 leaf-spine fabric
// (bench/s6_multi_bottleneck.cpp), compatibility-aware admission, at three
// oversubscription ratios.  It isolates the compatibility solver (core): at
// 4:1 circle scoring dominates the profile, while the 1:1 point prunes every
// fabric link and runs solver-free — the same fluid work without the layer.
//
// The arrival schedule is s6's generator at a fixed arrival seed; the
// benchmark seed shifts every arrival by up to kJitterMs.  A free arrival
// seed changes which models share a link and so the number of solver
// misses: over arrival seeds 1-20 one pass took 4.8-19.4 s, a spread no
// regression bound can hold.  The jitter keeps the sharing structure (and
// the solver load) of the base schedule while still varying every input.
#include <algorithm>

#include "orch/orchestrator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ccml;

using CircleMode = OrchestratorConfig::CircleMode;

struct Point {
  const char* name;
  CircleMode circle;
  int ratio;  ///< fabric oversubscription N:1
};

constexpr Point kPoints[] = {
    {"compat-graph.oversub1", CircleMode::kGraph, 1},
    {"compat-graph.oversub2", CircleMode::kGraph, 2},
    {"compat-graph.oversub4", CircleMode::kGraph, 4},
    {"compat-single.oversub2", CircleMode::kSingleCircle, 2},
    {"compat-single.oversub4", CircleMode::kSingleCircle, 4},
};
constexpr int kRatios[] = {1, 2, 4};

// Arrivals over this many simulated seconds, then a drain so deferred
// admissions finish (s6 uses 120 + 30; this keeps a pass to a few seconds).
constexpr double kArrivalSeconds = 60.0;
constexpr double kDrainSeconds = 30.0;
// Arrival seed of the base schedule: a pass of about 4 s on a 4-vCPU host,
// solver-dominated at 2:1 and 4:1.
constexpr std::uint64_t kArrivalSeed = 15;
constexpr std::uint64_t kJitterMs = 200;

int ratio_index(int ratio) {
  return static_cast<int>(std::find(std::begin(kRatios), std::end(kRatios),
                                    ratio) -
                          std::begin(kRatios));
}

class ClusterOversub final : public Workload {
 public:
  void setup(std::uint64_t seed, double scale) override {
    topos_.clear();
    schedules_.clear();
    configs_.clear();
    const double arrivals_s = kArrivalSeconds * scale;
    horizon_s_ = arrivals_s + kDrainSeconds * scale;
    for (const int ratio : kRatios) {
      // 4 ToRs x 3 hosts at 50 Gb/s, one spine; the per-ToR uplink carries
      // 150 / ratio Gb/s against 150 Gb/s of host demand.
      const double fabric_gbps = 150.0 / ratio;
      topos_.push_back(Topology::leaf_spine(4, 3, 1, Rate::gbps(50),
                                            Rate::gbps(fabric_gbps)));
      // The s6 arrival mix: 4-worker jobs that always span racks,
      // VGG19(1200) x4 : BERT(16), 10 jobs/min, comm arcs at the rate a
      // spanning job sees on this fabric.
      ArrivalConfig acfg;
      acfg.seed = kArrivalSeed;
      acfg.rate_per_min = 10.0;
      acfg.min_service = Duration::seconds(12);
      acfg.mean_service_extra = Duration::seconds(8);
      acfg.horizon = Duration::from_seconds_f(arrivals_s);
      acfg.min_workers = 4;
      acfg.max_workers = 4;
      acfg.catalog = {{"VGG19", 1200}, {"VGG19", 1200}, {"VGG19", 1200},
                      {"VGG19", 1200}, {"BERT", 16}};
      acfg.profile_rate = Rate::gbps(std::min(42.5, 0.85 * fabric_gbps));
      ArrivalSchedule schedule = generate_arrivals(acfg);
      for (std::size_t j = 0; j < schedule.jobs.size(); ++j) {
        schedule.jobs[j].at += Duration::millis(
            static_cast<std::int64_t>(mix_seed(seed, j) % kJitterMs));
      }
      std::stable_sort(schedule.jobs.begin(), schedule.jobs.end(),
                       [](const JobArrival& a, const JobArrival& b) {
                         return a.at < b.at;
                       });
      schedules_.push_back(std::move(schedule));
    }
    for (const Point& p : kPoints) {
      OrchestratorConfig cfg;
      cfg.admission.policy = AdmissionPolicyKind::kCompatibilityAware;
      cfg.circle = p.circle;
      cfg.horizon = Duration::from_seconds_f(horizon_s_);
      configs_.push_back(std::move(cfg));
    }
  }

  PassOutput run(bool probed) override {
    PassOutput out;
    for (std::size_t i = 0; i < std::size(kPoints); ++i) {
      const Point& p = kPoints[i];
      const int r = ratio_index(p.ratio);
      OrchestratorConfig cfg = configs_[i];
      TraceBus bus;
      MeteredSink counting;
      if (probed) {
        bus.add_sink(counting);
        cfg.trace = &bus;
      }
      Orchestrator orch(topos_[r], schedules_[r], std::move(cfg));
      ++out.runs;
      out.digest += std::string(p.name) + "\n";
      ClusterRunReport report;
      const CallTimer timer;
      try {
        report = orch.run();
      } catch (const std::exception& e) {
        ++out.failed;
        out.errors.push_back(std::string(p.name) + ": " + e.what());
        out.digest += "FAILED\n";
        continue;
      }
      out.calls.push_back(timer.stop(horizon_s_));
      const double run_s = out.calls.back().wall_s;
      if (report.submitted != schedules_[r].size() ||
          report.finished > report.admitted) {
        ++out.failed;
        out.errors.push_back(std::string(p.name) +
                             ": report does not account for its arrivals");
      }
      out.digest += report.summary();

      auto& L = out.layers;
      const ResolveStats& s = report.resolve;
      const std::string run = p.name;
      L["core.link_solves." + run] = static_cast<double>(s.solves);
      L["core.component_solves." + run] =
          static_cast<double>(s.component_solves);
      L["core.link_solves"] += static_cast<double>(s.solves);
      L["core.link_cache_hits"] += static_cast<double>(s.cache_hits);
      L["core.component_solves"] += static_cast<double>(s.component_solves);
      L["core.component_cache_hits"] +=
          static_cast<double>(s.component_cache_hits);
      L["core.warm_start_hits"] += static_cast<double>(s.warm_start_hits);
      L["core.nodes_explored"] += static_cast<double>(s.nodes_explored);
      L["orch.admitted"] += static_cast<double>(report.admitted);
      L["orch.rejected"] += static_cast<double>(report.rejected);
      L["orch.finished"] += static_cast<double>(report.finished);
      if (probed) {
        add_bus_counters(bus, L);
        L["trace.events"] += static_cast<double>(counting.events());
      } else {
        L["orch.run_s." + run] = run_s;
        L["orch.run_s"] += run_s;
        L["core.link_solve_s"] += static_cast<double>(s.wall_micros) * 1e-6;
      }
    }
    auto& L = out.layers;
    const double lookups = L["core.link_solves"] + L["core.link_cache_hits"];
    L["core.cache_hit_rate"] =
        lookups > 0 ? L["core.link_cache_hits"] / lookups : 0.0;
    if (!probed) {
      L["orch.other_s"] = L["orch.run_s"] - L["core.link_solve_s"];
      L["core.link_solve_ms_per_solve"] =
          L["core.link_solves"] > 0
              ? 1e3 * L["core.link_solve_s"] / L["core.link_solves"]
              : 0.0;
    }
    return out;
  }

 private:
  double horizon_s_ = 0.0;
  std::vector<Topology> topos_;  // Orchestrator keeps a reference
  std::vector<ArrivalSchedule> schedules_;
  std::vector<OrchestratorConfig> configs_;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_oversub() {
  return std::make_unique<ClusterOversub>();
}

}  // namespace perfbench
