// The benchmark's three workloads.  Each builds its inputs from a seed in
// setup() and then runs one fixed amount of work per pass; main.cpp repeats
// passes for the measurement window and keeps each timed call's fastest
// repetition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "probes.h"

namespace perfbench {

/// One timed library call of a pass.  Every pass makes the same calls in the
/// same order, so main.cpp can keep each call's fastest repetition.
struct TimedCall {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process user+sys CPU inside the call
  double sim_s = 0.0;  ///< simulated seconds it covers; 0 = not in the rate
};

/// Starts the wall and CPU clocks of a call; stop() reads them.
class CallTimer {
 public:
  CallTimer() : cpu0_(process_cpu_seconds()), t0_(Clock::now()) {}
  TimedCall stop(double sim_s) const {
    const Clock::time_point t1 = Clock::now();
    return {seconds_between(t0_, t1), process_cpu_seconds() - cpu0_, sim_s};
  }

 private:
  double cpu0_;
  Clock::time_point t0_;
};

/// What one pass over a workload's fixed work produced.
struct PassOutput {
  std::vector<TimedCall> calls;  ///< complete only when nothing failed
  std::size_t runs = 0;
  std::size_t failed = 0;
  std::string digest;   ///< concatenated per-run digests (hashed by main)
  std::vector<std::string> errors;
  /// Per-layer values, by the metric names in main.cpp's table.
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds topologies, arrival schedules, job profiles and configs.  May be
  /// called repeatedly (setup_s takes the fastest batch); the last call wins.
  /// `scale` shrinks the simulated horizons (1 = the benchmark's size).
  virtual void setup(std::uint64_t seed, double scale) = 0;

  /// One pass over the workload's fixed work.  `probed` binds the trace
  /// probes (counting bus or metered sink chain); a plain pass binds none.
  virtual PassOutput run(bool probed) = 0;
};

/// Full-precision digest of a scenario's observable outcome (as in s7): two
/// runs of one configuration must give the same string.
std::string scenario_fingerprint(const ccml::ScenarioResult& r);

std::unique_ptr<Workload> make_cluster_oversub();
std::unique_ptr<Workload> make_zoo_dumbbell();
/// Checkpoint files go to `workdir`.
std::unique_ptr<Workload> make_traced_resume(std::string workdir);

}  // namespace perfbench
