// Micro-benchmarks (google-benchmark): compatibility-solver performance as
// instances grow — job count, sector count, and mixed-period LCM blow-up.
// The paper's §4 envisions the scheduler calling this solver on every
// placement decision, so it must stay in the low milliseconds.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

#include "core/solver.h"
#include "workload/model_zoo.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

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

void BM_SolverCompatibleJobs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<CommProfile> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(job(i, 900, 0.9 / n));  // jointly feasible
  }
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver().solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverCompatibleJobs)->DenseRange(2, 6);

void BM_SolverInfeasibleJobs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<CommProfile> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(job(i, 900, 0.6));  // wildly infeasible
  }
  SolverOptions opts;
  opts.anneal_iterations = 1000;
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver(opts).solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverInfeasibleJobs)->DenseRange(2, 5);

void BM_SolverSectors(benchmark::State& state) {
  const std::vector<CommProfile> jobs = {job(0, 1000, 0.45),
                                         job(1, 1000, 0.45)};
  SolverOptions opts;
  opts.sectors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver(opts).solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverSectors)->Arg(90)->Arg(360)->Arg(1440);

void BM_SolverMixedPeriods(benchmark::State& state) {
  // LCM growth: periods 40/60/90 -> unified circle 360 ms.
  const std::vector<CommProfile> jobs = {job(0, 40, 0.12), job(1, 60, 0.12),
                                         job(2, 90, 0.12)};
  for (auto _ : state) {
    const SolverResult r = CompatibilitySolver().solve(jobs);
    benchmark::DoNotOptimize(r.compatible);
  }
}
BENCHMARK(BM_SolverMixedPeriods);

void BM_UnifiedCircleOverlap(benchmark::State& state) {
  const std::vector<CommProfile> jobs = {job(0, 40, 0.2), job(1, 60, 0.2),
                                         job(2, 90, 0.2)};
  const UnifiedCircle circle(jobs);
  const std::vector<Duration> rot = {Duration::millis(3), Duration::millis(17),
                                     Duration::millis(42)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(circle.overlap_fraction(rot));
  }
}
BENCHMARK(BM_UnifiedCircleOverlap);

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

// Full re-score: rotate every job and sweep them all.
void BM_CircleFullSweep(benchmark::State& state) {
  const std::vector<CommProfile> jobs = s6_mix();
  const UnifiedCircle circle(jobs);
  std::vector<Duration> rot = {Duration::zero(), Duration::millis(300),
                               Duration::millis(700), Duration::millis(150)};
  std::int64_t step = 0;
  for (auto _ : state) {
    rot[1] = Duration::millis(step++ % 997);
    benchmark::DoNotOptimize(circle.sweep(rot));
  }
  state.counters["clamped"] = circle.exact() ? 0 : 1;
}
BENCHMARK(BM_CircleFullSweep);

// One-job re-score, as in an annealing step whose moves are rejected: the
// others' depth profile is built once and job 1 is scored against it.
void BM_CircleOneJobRescore(benchmark::State& state) {
  const std::vector<CommProfile> jobs = s6_mix();
  const UnifiedCircle circle(jobs);
  CircleScorer scorer(circle, CircleLimit{});
  std::vector<Duration> rot = {Duration::zero(), Duration::millis(300),
                               Duration::millis(700), Duration::millis(150)};
  std::int64_t step = 0;
  for (auto _ : state) {
    rot[1] = Duration::millis(step++ % 997);
    benchmark::DoNotOptimize(scorer.violated_ns(rot, 1));
  }
}
BENCHMARK(BM_CircleOneJobRescore);

}  // namespace
