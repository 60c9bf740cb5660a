// Compatibility-solver micro-benchmarks as instances grow — job count,
// sector count, and mixed-period LCM blow-up — and the circle scoring
// behind the solver's annealing walk.  The paper's §4 envisions the
// scheduler calling this solver on every placement decision, so it must
// stay in the low milliseconds.
//
//   perf_solver
//
// times each case kReps times with the shared rep timer (bench::time_reps)
// and prints microseconds per call: the best rep, the median and the
// quartiles.  Sub-microsecond cases time a batch of calls per rep.
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/cli.h"
#include "core/solver.h"
#include "workload/model_zoo.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

constexpr int kReps = 15;

/// Keeps each measured result observable, so no call is optimized away.
volatile double g_sink = 0.0;

CommProfile job(int i, std::int64_t period_ms, double comm_fraction) {
  const auto comm =
      static_cast<std::int64_t>(static_cast<double>(period_ms) * comm_fraction);
  std::string name = "j";
  name += std::to_string(i);
  return CommProfile::single_phase(std::move(name),
                                   Duration::millis(period_ms),
                                   Duration::millis(period_ms - comm),
                                   Rate::gbps(42.5));
}

/// Times kReps batches of `batch` calls of `fn` and prints one row.
template <typename Fn>
void measure(const std::string& name, int batch, Fn&& fn) {
  const bench::Timing t = bench::time_reps(kReps, [&] {
    for (int i = 0; i < batch; ++i) g_sink = g_sink + fn();
  });
  const double us = 1000.0 / batch;  // ms per batch -> us per call
  std::printf("%-28s %12.2f %12.2f %12.2f %12.2f\n", name.c_str(),
              t.best * us, t.q1 * us, t.median * us, t.q3 * us);
}

double solve(const std::vector<CommProfile>& jobs, SolverOptions opts = {}) {
  return CompatibilitySolver(std::move(opts)).solve(jobs).violation_fraction;
}

// The s6 multi-bottleneck mix at 4:1 oversubscription: three VGG19(1200)
// and one BERT(16) at the fabric-bound profile rate.  Their LCM exceeds the
// 30 s cap, so the circle is clamped and every job repeats many times.
std::vector<CommProfile> s6_mix() {
  const auto profile = [](const char* model, int batch) {
    const auto calibrated = ModelZoo::calibrated(model, batch);
    return analytic_profile(
        calibrated ? *calibrated : ModelZoo::analytic(model, batch, 4),
        Rate::gbps(0.85 * 37.5));
  };
  return {profile("VGG19", 1200), profile("VGG19", 1200),
          profile("VGG19", 1200), profile("BERT", 16)};
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> no_flags;
  bench::read_flags(argc, argv, no_flags);
  std::printf("perf_solver: microseconds per call over %d reps\n", kReps);
  std::printf("%-28s %12s %12s %12s %12s\n", "case", "best", "q1", "median",
              "q3");

  for (int n = 2; n <= 6; ++n) {
    std::vector<CommProfile> jobs;
    for (int i = 0; i < n; ++i) jobs.push_back(job(i, 900, 0.9 / n));
    measure("solver/compatible/" + std::to_string(n), 1,
            [&] { return solve(jobs); });  // jointly feasible
  }
  SolverOptions short_walk;
  short_walk.anneal_iterations = 1000;
  for (int n = 2; n <= 5; ++n) {
    std::vector<CommProfile> jobs;
    for (int i = 0; i < n; ++i) jobs.push_back(job(i, 900, 0.6));
    measure("solver/infeasible/" + std::to_string(n), 1,
            [&] { return solve(jobs, short_walk); });  // wildly infeasible
  }
  for (const int sectors : {90, 360, 1440}) {
    const std::vector<CommProfile> jobs = {job(0, 1000, 0.45),
                                           job(1, 1000, 0.45)};
    SolverOptions opts;
    opts.sectors = sectors;
    measure("solver/sectors/" + std::to_string(sectors), 1,
            [&] { return solve(jobs, opts); });
  }
  // LCM growth: periods 40/60/90 -> unified circle 360 ms.
  const std::vector<CommProfile> mixed = {job(0, 40, 0.12), job(1, 60, 0.12),
                                          job(2, 90, 0.12)};
  measure("solver/mixed_periods", 1, [&] { return solve(mixed); });

  const std::vector<CommProfile> small = {job(0, 40, 0.2), job(1, 60, 0.2),
                                          job(2, 90, 0.2)};
  const UnifiedCircle small_circle(small);
  const std::vector<Duration> small_rot = {
      Duration::millis(3), Duration::millis(17), Duration::millis(42)};
  measure("circle/overlap", 1000,
          [&] { return small_circle.overlap_fraction(small_rot); });

  // Full re-score: rotate every job and sweep them all; then the one-job
  // re-score of an annealing step whose moves are rejected, where the
  // others' depth profile is built once and job 1 is scored against it;
  // then accepted moves alternating between jobs 1 and 2, so every re-score
  // finds its profile stale and rebuilds it first.
  const std::vector<CommProfile> s6 = s6_mix();
  const UnifiedCircle circle(s6);
  std::vector<Duration> rot = {Duration::zero(), Duration::millis(300),
                               Duration::millis(700), Duration::millis(150)};
  std::int64_t step = 0;
  measure("circle/full_sweep", 100, [&] {
    rot[1] = Duration::millis(step++ % 997);
    return static_cast<double>(circle.sweep(rot).violated_ns);
  });
  CircleScorer scorer(circle, CircleLimit{});
  measure("circle/one_job_rescore", 1000, [&] {
    rot[1] = Duration::millis(step++ % 997);
    return static_cast<double>(scorer.violated_ns(rot, 1));
  });
  CircleScorer alternating(circle, CircleLimit{});
  measure("circle/stale_rescore", 1000, [&] {
    const std::size_t j = 1 + static_cast<std::size_t>(step % 2);
    rot[j] = Duration::millis(step++ % 997);
    return static_cast<double>(alternating.violated_ns(rot, j));
  });
  std::printf("s6 circle clamped: %s\n", circle.exact() ? "no" : "yes");
  return 0;
}
