// Ablation: how much iteration-time variation does the sliding mechanism
// tolerate?  The geometric abstraction assumes compute/communication phase
// durations stay "more or less the same" across iterations.  Real steps
// jitter (data loading, kernel scheduling, stragglers); this sweep adds
// Gaussian noise to every compute phase and measures what survives:
//   * the unfairness payoff for a compatible pair (unfair DCQCN), and
//   * the solver-driven flow schedule (whose fixed slots are brittler —
//     a late phase must wait for the next slot).
#include <cstdio>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "core/schedule.h"
#include "core/solver.h"
#include "sim/sweep.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

ScenarioResult run_unfair(const JobProfile& p, Duration jitter, int seconds) {
  std::vector<ScenarioJob> jobs = {{"J1", p}, {"J2", p}};
  jobs[0].cc_timer = aggressive_knobs().timer;
  jobs[0].cc_rai = aggressive_knobs().rai;
  jobs[1].cc_timer = meek_knobs().timer;
  jobs[1].cc_rai = meek_knobs().rai;
  for (auto& j : jobs) j.compute_jitter = jitter;
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = Duration::seconds(seconds);
  cfg.warmup_iterations = 10;
  return run_dumbbell_scenario(jobs, cfg);
}

ScenarioResult run_scheduled(const JobProfile& p, Duration jitter,
                             int seconds) {
  const Rate goodput = scenario_goodput();
  const CommProfile prof = analytic_profile(p, goodput);
  const std::vector<CommProfile> group = {prof, prof};
  const SolverResult sr = CompatibilitySolver().solve(group);
  const FlowSchedule fs =
      make_flow_schedule(group, sr.rotations, TimePoint::origin());
  std::vector<ScenarioJob> jobs = {{"J1", p}, {"J2", p}};
  for (int i = 0; i < 2; ++i) {
    jobs[i].gate = CommGate{fs.epoch, fs.slots[i].start_offset,
                            fs.slots[i].period, fs.slots[i].phase_offsets,
                            fs.slots[i].window};
    jobs[i].start_offset = fs.slots[i].job_start_offset;
    jobs[i].compute_jitter = jitter;
  }
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kMaxMinFair;
  cfg.duration = Duration::seconds(seconds);
  cfg.warmup_iterations = 10;
  return run_dumbbell_scenario(jobs, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 30);
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::printf("Ablation: per-iteration compute jitter vs interleaving "
              "mechanisms (2 x DLRM(2000); compute 700 ms, solo 1000 ms, "
              "fair plateau 1300 ms)\n\n");

  // Each jitter level is an independent pair of simulations; fan the grid
  // across cores and render the table from the input-ordered results.
  const std::vector<double> grid = {0.0, 5.0, 20.0, 50.0, 100.0, 200.0};
  struct Point {
    ScenarioResult unfair, sched;
  };
  SweepRunner pool;
  const auto results = pool.run(grid, [&](double jitter_ms, std::size_t) {
    const Duration jitter = Duration::from_millis_f(jitter_ms);
    return Point{run_unfair(dlrm, jitter, seconds),
                 run_scheduled(dlrm, jitter, seconds)};
  });

  TextTable table({"jitter stddev", "unfair DCQCN J1/J2 (ms)",
                   "flow schedule J1/J2 (ms)"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& [unfair, sched] = results[i];
    char buf1[64], buf2[64];
    std::snprintf(buf1, sizeof(buf1), "%.0f / %.0f", unfair.jobs[0].mean_ms,
                  unfair.jobs[1].mean_ms);
    std::snprintf(buf2, sizeof(buf2), "%.0f / %.0f", sched.jobs[0].mean_ms,
                  sched.jobs[1].mean_ms);
    table.add_row({TextTable::num(grid[i], 0) + " ms", buf1, buf2});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "expected shape: unfair DCQCN degrades gracefully — the slide "
      "re-establishes itself after every perturbation, so means stay well "
      "below the 1300 ms fair plateau even at heavy jitter.  The flow "
      "schedule (slack-spread rotations + guard windows of ~200 ms) absorbs "
      "jitter up to its guard band, then starts paying missed-slot "
      "penalties.  Without guard windows (CommGate::window = 0) any jitter "
      "at all costs a full extra period per miss.\n");
  return 0;
}
