// Transport comparison: every bandwidth policy in the library on the same
// compatible pair, plus an incompatible pair to show where each mechanism's
// guarantees break down.
//
// The per-transport scenarios are independent simulations, so they are
// fanned across cores with SweepRunner; rows are still printed in the
// declaration order (results are collected input-ordered).
//
// Usage: transport_comparison [seconds_simulated] [threads]
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "core/schedule.h"
#include "sim/sweep.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

struct RunSpec {
  const char* label;
  PolicyKind policy;
  std::function<void(std::vector<ScenarioJob>&)> mutate;
};

void compare(SweepRunner& pool, const char* title, const JobProfile& a,
             const JobProfile& b, int seconds) {
  const Rate goodput = scenario_goodput();
  std::printf("== %s ==\n", title);
  std::printf("solo: J1 %.0f ms, J2 %.0f ms\n\n",
              a.solo_iteration(goodput).to_millis(),
              b.solo_iteration(goodput).to_millis());

  auto noop = [](std::vector<ScenarioJob>&) {};
  std::vector<RunSpec> specs = {
      {"ideal fair (max-min)", PolicyKind::kMaxMinFair, noop},
      {"DCQCN (default, fair)", PolicyKind::kDcqcn, noop},
      {"DCQCN unfair (T 55/300us)", PolicyKind::kDcqcn,
       [](std::vector<ScenarioJob>& jobs) {
         jobs[0].cc_timer = aggressive_knobs().timer;
         jobs[0].cc_rai = aggressive_knobs().rai;
         jobs[1].cc_timer = meek_knobs().timer;
         jobs[1].cc_rai = meek_knobs().rai;
       }},
      {"DCQCN adaptive (paper 4i)", PolicyKind::kDcqcnAdaptive, noop},
      {"strict priorities (paper 4ii)", PolicyKind::kPriority,
       [](std::vector<ScenarioJob>& jobs) {
         jobs[0].priority = 0;
         jobs[1].priority = 1;
       }},
      {"WFQ 2:1", PolicyKind::kWfq,
       [](std::vector<ScenarioJob>& jobs) {
         jobs[0].weight = 2.0;
         jobs[1].weight = 1.0;
       }},
  };

  // Flow scheduling needs solver rotations (paper 4iii); the solve itself is
  // cheap and must precede the sweep so its gate can be captured by value.
  bool schedule_incompatible = false;
  {
    const CommProfile pa = analytic_profile(a, goodput);
    const CommProfile pb = analytic_profile(b, goodput);
    const std::vector<CommProfile> group = {pa, pb};
    const SolverResult sr = CompatibilitySolver().solve(group);
    if (sr.compatible) {
      const FlowSchedule fs =
          make_flow_schedule(group, sr.rotations, TimePoint::origin());
      specs.push_back({"flow schedule (paper 4iii)", PolicyKind::kMaxMinFair,
                       [fs](std::vector<ScenarioJob>& jobs) {
                         for (int i = 0; i < 2; ++i) {
                           jobs[i].gate = CommGate{
                               fs.epoch, fs.slots[i].start_offset,
                               fs.slots[i].period, fs.slots[i].phase_offsets,
                               fs.slots[i].window};
                           jobs[i].start_offset = fs.slots[i].job_start_offset;
                         }
                       }});
    } else {
      schedule_incompatible = true;
    }
  }

  struct Row {
    double j1_ms, j2_ms;
  };
  const std::vector<Row> rows =
      pool.run(specs, [&](const RunSpec& rs, std::size_t) {
        std::vector<ScenarioJob> jobs = {{"J1", a}, {"J2", b}};
        jobs[1].start_offset = Duration::millis(40);
        rs.mutate(jobs);
        ScenarioConfig cfg;
        cfg.policy = rs.policy;
        cfg.duration = Duration::seconds(seconds);
        cfg.warmup_iterations = 3;
        const auto r = run_dumbbell_scenario(jobs, cfg);
        return Row{r.jobs[0].mean_ms, r.jobs[1].mean_ms};
      });

  TextTable table({"transport", "J1 mean ms", "J2 mean ms"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    table.add_row({specs[i].label, TextTable::num(rows[i].j1_ms, 0),
                   TextTable::num(rows[i].j2_ms, 0)});
  }
  if (schedule_incompatible) {
    table.add_row({"flow schedule (paper 4iii)", "n/a", "(incompatible)"});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds] [threads]");
  const int seconds = args.positive(1, 25);
  SweepOptions opts;
  opts.threads = static_cast<unsigned>(args.positive(2, 0));
  SweepRunner pool(opts);

  compare(pool, "compatible pair: DLRM(2000) x 2",
          *ModelZoo::calibrated("DLRM", 2000),
          *ModelZoo::calibrated("DLRM", 2000), seconds);

  compare(pool, "incompatible pair: comm fraction 0.7 each",
          ModelZoo::synthetic("heavy-A", Duration::millis(300),
                              Rate::gbps(42.5) * Duration::millis(700)),
          ModelZoo::synthetic("heavy-B", Duration::millis(300),
                              Rate::gbps(42.5) * Duration::millis(700)),
          seconds);

  std::printf("reading guide: for the compatible pair every interleaving "
              "mechanism reaches ~solo speed while plain fair transports "
              "plateau higher; for the incompatible pair only graceful "
              "degradation differs — adaptive DCQCN and ideal fair split "
              "evenly, static unfairness and strict priority starve J2.\n");
  return 0;
}
