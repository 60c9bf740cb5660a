// Table 1: groups of DNN training jobs competing on one bottleneck link.
// For each group we measure the average iteration time under (i) the default
// fair DCQCN and (ii) unfair DCQCN where aggressiveness follows the order of
// appearance (first job most aggressive).  A group is *fully compatible*
// when unfairness speeds up every job in the group; the geometric solver's
// verdict is printed alongside.
//
// Paper values for reference:
//   BERT(8)+VGG19(1200):                183/157 (1.17x), 297/315 (0.94x)   x
//   DLRM(2000)x2:                       1301/1001 (1.3x), 1300/1019 (1.28x) ok
//   BERT(8)+VGG19(1400)+WRN(800):       320/216, 494/466, 466/505          x
//   WRN(800)+VGG16(1400):               295/273 (1.08x), 294/274 (1.07x)   ok
//   VGG19(1400)+VGG16(1700)+RN50(1600): 389/329, 389/329, 167/165          ok
#include <cstdio>
#include <vector>

#include "bench/cli.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

struct GroupSpec {
  std::vector<std::pair<const char*, int>> members;  // (model, batch)
  bool paper_compatible;
  std::vector<double> paper_fair_ms;
  std::vector<double> paper_unfair_ms;
};

const std::vector<GroupSpec> kGroups = {
    {{{"BERT", 8}, {"VGG19", 1200}}, false, {183, 297}, {157, 315}},
    {{{"DLRM", 2000}, {"DLRM", 2000}}, true, {1301, 1300}, {1001, 1019}},
    {{{"BERT", 8}, {"VGG19", 1400}, {"WideResNet", 800}},
     false,
     {320, 494, 466},
     {216, 466, 505}},
    {{{"WideResNet", 800}, {"VGG16", 1400}}, true, {295, 294}, {273, 274}},
    {{{"VGG19", 1400}, {"VGG16", 1700}, {"ResNet50", 1600}},
     true,
     {389, 389, 167},
     {329, 329, 165}},
};

ScenarioResult run_group(const GroupSpec& group, bool unfair,
                         Duration duration) {
  std::vector<ScenarioJob> jobs;
  for (std::size_t i = 0; i < group.members.size(); ++i) {
    const auto& [model, batch] = group.members[i];
    ScenarioJob job;
    job.name = std::string(model) + "(" + std::to_string(batch) + ")";
    job.profile = *ModelZoo::calibrated(model, batch);
    if (unfair) {
      const Aggressiveness knobs = ranked_knobs(static_cast<int>(i));
      job.cc_timer = knobs.timer;
      job.cc_rai = knobs.rai;
    }
    jobs.push_back(std::move(job));
  }
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = duration;
  cfg.warmup_iterations = 8;
  return run_dumbbell_scenario(jobs, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, "[sim-seconds]");
  const int seconds = args.positive(1, 40);
  std::printf("Table 1: fair vs unfair iteration times per job group "
              "(%d s simulated per scenario)\n\n",
              seconds);

  TextTable table({"jobs competing (batch)", "fair ms", "unfair ms",
                   "speed-up", "paper fair", "paper unfair", "paper x",
                   "fully compatible (solver)"});
  CompatibilitySolver solver;
  const Rate goodput = scenario_goodput();
  std::string verdict_misses, speed_up_misses;
  double bert_x = 0, vgg_x = 0;  // group 1's speed-ups from unfairness

  for (const GroupSpec& group : kGroups) {
    const auto fair = run_group(group, false, Duration::seconds(seconds));
    const auto unfair = run_group(group, true, Duration::seconds(seconds));

    std::vector<CommProfile> profiles;
    for (const auto& [model, batch] : group.members) {
      profiles.push_back(
          analytic_profile(*ModelZoo::calibrated(model, batch), goodput));
    }
    const SolverResult verdict = solver.solve(profiles);

    bool all_speed_up = true;
    for (std::size_t i = 0; i < group.members.size(); ++i) {
      if (unfair.jobs[i].mean_ms >= fair.jobs[i].mean_ms * 0.999) {
        all_speed_up = false;
      }
    }

    const std::string first = fair.jobs[0].name + " ";
    if (verdict.compatible != group.paper_compatible) verdict_misses += first;
    if (all_speed_up != group.paper_compatible) speed_up_misses += first;
    if (&group == &kGroups[0]) {
      bert_x = fair.jobs[0].mean_ms / unfair.jobs[0].mean_ms;
      vgg_x = fair.jobs[1].mean_ms / unfair.jobs[1].mean_ms;
    }

    for (std::size_t i = 0; i < group.members.size(); ++i) {
      const double speedup = fair.jobs[i].mean_ms / unfair.jobs[i].mean_ms;
      const double paper_x =
          group.paper_fair_ms[i] / group.paper_unfair_ms[i];
      table.add_row(
          {fair.jobs[i].name, TextTable::num(fair.jobs[i].mean_ms, 0),
           TextTable::num(unfair.jobs[i].mean_ms, 0),
           TextTable::num(speedup, 2) + "x",
           TextTable::num(group.paper_fair_ms[i], 0),
           TextTable::num(group.paper_unfair_ms[i], 0),
           TextTable::num(paper_x, 2) + "x",
           i == 0 ? std::string(verdict.compatible ? "yes" : "no") +
                        " (paper: " +
                        (group.paper_compatible ? "yes" : "no") + ")" +
                        (all_speed_up ? " [all sped up]" : "")
                  : ""});
    }
    table.add_rule();
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("green criterion (paper): a group is fully compatible when "
              "unfairness speeds up ALL jobs in it.\n");
  bench::Claims claims;
  claims.within("group 1: aggressive BERT speed-up over 1.03x (paper 1.17x)",
                {bert_x}, 1.03, INFINITY);
  claims.within("group 1: meek VGG19 speed-up under 1.02x (paper 0.94x)",
                {vgg_x}, 0, 1.02);
  claims.check("the solver's verdict matches the paper's in all five groups",
               verdict_misses.empty(), "differs at " + verdict_misses);
  claims.check("unfairness speeds up all jobs exactly in the paper's "
               "compatible groups",
               speed_up_misses.empty(), "differs at " + speed_up_misses);
  return claims.exit_code();
}
