// zoo-dumbbell: the five Table-1 job groups, fair and with the unfair knob
// ladder, under six rate kernels (bench/s7_transport_zoo.cpp plus the
// max-min water-fill).  All of its time is sim/net/cc/workload stepping: no
// flow schedule, so the solver is never called, and no trace bus is bound in
// the timed passes — solver and trace changes should not move it.
#include <cmath>
#include <cstdio>

#include "cluster/scenario.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ccml;

// The Table-1 job groups, as (model, batch) pairs.
const std::vector<std::vector<std::pair<const char*, int>>> kGroups = {
    {{"BERT", 8}, {"VGG19", 1200}},
    {{"DLRM", 2000}, {"DLRM", 2000}},
    {{"BERT", 8}, {"VGG19", 1400}, {"WideResNet", 800}},
    {{"WideResNet", 800}, {"VGG16", 1400}},
    {{"VGG19", 1400}, {"VGG16", 1700}, {"ResNet50", 1600}},
};

const char* const kFamilies[] = {"dcqcn", "timely", "swift",
                                 "bbr",   "mltcp-dcqcn", "maxmin"};

constexpr double kScenarioSeconds = 30.0;
// Start offsets are drawn in [0, kMaxOffsetMs) per (group, job) from the seed.
constexpr std::uint64_t kMaxOffsetMs = 250;

class ZooDumbbell final : public Workload {
 public:
  void setup(std::uint64_t seed, double scale) override {
    scenarios_.clear();
    for (const char* family : kFamilies) {
      const PolicyKind kind = parse_policy_kind(family);
      for (std::size_t g = 0; g < kGroups.size(); ++g) {
        for (const bool unfair : {false, true}) {
          Scenario sc;
          sc.family = family;
          for (std::size_t i = 0; i < kGroups[g].size(); ++i) {
            const auto& [model, batch] = kGroups[g][i];
            ScenarioJob job;
            job.name = std::string(model) + "(" + std::to_string(batch) + ")";
            job.profile = *ModelZoo::calibrated(model, batch);
            job.start_offset = Duration::millis(static_cast<std::int64_t>(
                mix_seed(seed, g * 8 + i) % kMaxOffsetMs));
            if (unfair) {
              const Aggressiveness knobs = ranked_knobs(static_cast<int>(i));
              job.cc_timer = knobs.timer;
              job.cc_rai = knobs.rai;
            }
            sc.jobs.push_back(std::move(job));
          }
          sc.config.policy = kind;
          sc.config.duration = Duration::from_seconds_f(kScenarioSeconds * scale);
          sc.config.warmup_iterations = 4;
          scenarios_.push_back(std::move(sc));
        }
      }
    }
  }

  PassOutput run(bool probed) override {
    PassOutput out;
    for (const Scenario& sc : scenarios_) {
      ScenarioConfig cfg = sc.config;
      TraceBus bus;
      MeteredSink counting;
      if (probed) {
        bus.add_sink(counting);
        cfg.trace = &bus;
      }
      ++out.runs;
      ScenarioResult result;
      const CallTimer timer;
      try {
        result = run_dumbbell_scenario(sc.jobs, cfg);
      } catch (const std::exception& e) {
        ++out.failed;
        out.errors.push_back(sc.family + ": " + e.what());
        out.digest += "FAILED\n";
        continue;
      }
      out.calls.push_back(timer.stop(cfg.duration.to_seconds()));
      const double run_s = out.calls.back().wall_s;
      for (const ScenarioJobStats& j : result.jobs) {
        if (j.iterations == 0 || !std::isfinite(j.mean_ms) || j.mean_ms < 0) {
          ++out.failed;
          out.errors.push_back(sc.family + ": job " + j.name +
                               " made no valid progress");
          break;
        }
      }
      out.digest += scenario_fingerprint(result) + "\n";
      if (probed) {
        add_bus_counters(bus, out.layers);
        out.layers["trace.events"] += static_cast<double>(counting.events());
      } else {
        out.layers["cc." + sc.family + ".run_s"] += run_s;
      }
    }
    return out;
  }

 private:
  struct Scenario {
    std::string family;
    std::vector<ScenarioJob> jobs;
    ScenarioConfig config;
  };
  std::vector<Scenario> scenarios_;
};

}  // namespace

std::string scenario_fingerprint(const ScenarioResult& r) {
  std::string out;
  char buf[192];
  for (const ScenarioJobStats& j : r.jobs) {
    std::snprintf(buf, sizeof buf, "%s:%zu:%.17g:%.17g:%.17g;", j.name.c_str(),
                  j.iterations, j.mean_ms, j.median_ms, j.p95_ms);
    out += buf;
  }
  return out;
}

std::unique_ptr<Workload> make_zoo_dumbbell() {
  return std::make_unique<ZooDumbbell>();
}

}  // namespace perfbench
