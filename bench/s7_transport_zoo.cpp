// Section 7 (transport zoo): the Table-1 catalogue rerun per transport
// family.
//
// bench/table1_compatibility.cpp established the paper's fair-vs-unfair
// experiment under DCQCN.  With the pluggable CC-policy subsystem
// (src/cc/policy) the same five job groups can run under every transport
// family, and the paper's core observation — unfairness speeds up EVERY
// member of a compatible group — can be tested transport by transport.
// For each family we record:
//   * mean fair / unfair iteration time over the group's jobs;
//   * mean unfair speedup (fair_ms / unfair_ms, averaged per job);
//   * verdict agreement — the fraction of the five groups whose measured
//     all-jobs-sped-up verdict matches the paper's compatibility column.
// That last number is the per-transport interleaving quality: a transport
// whose unfairness knobs reproduce the paper's compatible/incompatible
// split interleaves job phases the way the geometric model predicts.
//
// The bench claims a byte-determinism probe (the most knob-sensitive
// configuration run twice must fingerprint identically), catalogue
// completeness (every registered transport name must round-trip through
// parse_policy_kind) and that every family reports measured means, and
// exits 1 on a miss.  --json FILE writes its report (bench::Report): the
// engine throughput, the claims and the per-family stats above; CI gates
// the claims and the throughput floor via tools/check_perf.py.
#include <cstdio>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "bench/cli.h"
#include "cc/policy/registry.h"
#include "cluster/scenario.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

struct GroupSpec {
  std::vector<std::pair<const char*, int>> members;  // (model, batch)
  bool paper_compatible;
};

// The Table-1 job groups (paper compatibility column alongside).
const std::vector<GroupSpec> kGroups = {
    {{{"BERT", 8}, {"VGG19", 1200}}, false},
    {{{"DLRM", 2000}, {"DLRM", 2000}}, true},
    {{{"BERT", 8}, {"VGG19", 1400}, {"WideResNet", 800}}, false},
    {{{"WideResNet", 800}, {"VGG16", 1400}}, true},
    {{{"VGG19", 1400}, {"VGG16", 1700}, {"ResNet50", 1600}}, true},
};

// One representative per transport family; the MLTCP wrapper rides on
// DCQCN here (mltcp-timely / mltcp-swift differ only in the base).
const std::vector<const char*> kFamilies = {
    "dcqcn", "timely", "swift", "bbr", "mltcp-dcqcn"};

std::string group_label(const GroupSpec& group) {
  std::string label;
  for (const auto& [model, batch] : group.members) {
    if (!label.empty()) label += "+";
    label += std::string(model) + "(" + std::to_string(batch) + ")";
  }
  return label;
}

ScenarioResult run_group(PolicyKind kind, const GroupSpec& group, bool unfair,
                         Duration duration) {
  std::vector<ScenarioJob> jobs;
  for (std::size_t i = 0; i < group.members.size(); ++i) {
    const auto& [model, batch] = group.members[i];
    ScenarioJob job;
    job.name = std::string(model) + "(" + std::to_string(batch) + ")";
    job.profile = *ModelZoo::calibrated(model, batch);
    if (unfair) {
      // cc_timer maps to the DCQCN timer / BBR decision interval, cc_rai
      // to the additive step of DCQCN / TIMELY / Swift — every family has
      // at least one knob the ladder reaches.
      const Aggressiveness knobs = ranked_knobs(static_cast<int>(i));
      job.cc_timer = knobs.timer;
      job.cc_rai = knobs.rai;
    }
    jobs.push_back(std::move(job));
  }
  ScenarioConfig cfg;
  cfg.policy = kind;
  cfg.duration = duration;
  cfg.warmup_iterations = 4;
  return run_dumbbell_scenario(jobs, cfg);
}

// Full-precision digest of a run's observable outcome; two runs of the
// same configuration must produce identical strings or the catalogue's
// numbers are not reproducible.
std::string fingerprint(const ScenarioResult& r) {
  std::string out;
  char buf[160];
  for (const ScenarioJobStats& j : r.jobs) {
    std::snprintf(buf, sizeof buf, "%s:%zu:%.17g:%.17g:%.17g;",
                  j.name.c_str(), j.iterations, j.mean_ms, j.median_ms,
                  j.p95_ms);
    out += buf;
  }
  return out;
}

struct FamilyStats {
  const char* name = nullptr;
  double mean_fair_ms = 0.0;
  double mean_unfair_ms = 0.0;
  double mean_speedup = 0.0;
  int verdict_matches = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags = {{"--seconds", "15"},
                                              {"--json", ""}};
  bench::read_flags(argc, argv, flags);
  const double seconds =
      bench::positive_number("--seconds", flags["--seconds"].c_str());
  const std::string json_path = flags["--json"];
  const Duration duration = Duration::from_seconds_f(seconds);

  std::printf("transport zoo: Table-1 catalogue x %zu transport families, "
              "%.0f s simulated per scenario\n\n",
              kFamilies.size(), seconds);

  TextTable table({"transport", "jobs competing (batch)", "fair ms",
                   "unfair ms", "speed-up", "all sped up", "paper compat"});
  std::vector<FamilyStats> stats;
  int runs = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const char* family : kFamilies) {
    const PolicyKind kind = parse_policy_kind(family);
    FamilyStats fs;
    fs.name = family;
    int jobs_total = 0;
    for (const GroupSpec& group : kGroups) {
      const ScenarioResult fair = run_group(kind, group, false, duration);
      const ScenarioResult unfair = run_group(kind, group, true, duration);
      runs += 2;

      double fair_ms = 0.0;
      double unfair_ms = 0.0;
      double speedup = 0.0;
      bool all_speed_up = true;
      for (std::size_t i = 0; i < group.members.size(); ++i) {
        fair_ms += fair.jobs[i].mean_ms;
        unfair_ms += unfair.jobs[i].mean_ms;
        speedup += fair.jobs[i].mean_ms / unfair.jobs[i].mean_ms;
        if (unfair.jobs[i].mean_ms >= fair.jobs[i].mean_ms * 0.999) {
          all_speed_up = false;
        }
      }
      const auto n = static_cast<double>(group.members.size());
      fs.mean_fair_ms += fair_ms;
      fs.mean_unfair_ms += unfair_ms;
      fs.mean_speedup += speedup;
      jobs_total += static_cast<int>(group.members.size());
      fs.verdict_matches += all_speed_up == group.paper_compatible;
      table.add_row({family, group_label(group),
                     TextTable::num(fair_ms / n, 0),
                     TextTable::num(unfair_ms / n, 0),
                     TextTable::num(speedup / n, 2) + "x",
                     all_speed_up ? "yes" : "no",
                     group.paper_compatible ? "yes" : "no"});
    }
    fs.mean_fair_ms /= jobs_total;
    fs.mean_unfair_ms /= jobs_total;
    fs.mean_speedup /= jobs_total;
    stats.push_back(fs);
    table.add_rule();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("%s\n", table.render().c_str());

  for (const FamilyStats& fs : stats) {
    std::printf("%-12s mean fair %.0f ms, unfair %.0f ms, speed-up %.2fx, "
                "verdict agreement %d/%zu\n",
                fs.name, fs.mean_fair_ms, fs.mean_unfair_ms, fs.mean_speedup,
                fs.verdict_matches, kGroups.size());
  }

  const double sim_s = runs * seconds;
  const double sim_per_wall = sim_s / wall_s;
  std::printf("\nthroughput: %d runs x %.0f sim-s in %.1f wall-s = %.0f "
              "sim-s/wall-s\n",
              runs, seconds, wall_s, sim_per_wall);
  bench::Claims claims;
  std::size_t measured = 0;
  for (const FamilyStats& fs : stats) {
    measured += fs.mean_fair_ms > 0.0 && fs.mean_unfair_ms > 0.0;
  }
  claims.check("every transport family reports measured fair and unfair "
               "means",
               measured == kFamilies.size(),
               std::to_string(measured) + " of " +
                   std::to_string(kFamilies.size()));

  // Determinism probe: the most knob-sensitive configuration (three jobs,
  // unfair ladder, random probe-cycle BBR) run twice must fingerprint
  // byte-identically, or every number above is noise.
  const std::string once =
      fingerprint(run_group(PolicyKind::kBbr, kGroups[4], true, duration));
  const std::string twice =
      fingerprint(run_group(PolicyKind::kBbr, kGroups[4], true, duration));
  claims.check("a repeated unfair BBR 3-job run is byte-identical",
               once == twice, "divergent");

  // Catalogue completeness: every registered transport must round-trip
  // name -> kind -> name, so factory errors and `ccml_sim transports`
  // always describe the real set.
  std::size_t catalogued = 0;
  std::size_t round_trips = 0;
  for (const TransportInfo& info : transport_catalogue()) {
    ++catalogued;
    try {
      round_trips += to_string(parse_policy_kind(info.name)) ==
                     std::string(info.name);
    } catch (const std::exception&) {
    }
  }
  claims.check("every registered transport name round-trips through the "
               "factory",
               catalogued > 0 && round_trips == catalogued,
               std::to_string(round_trips) + " of " +
                   std::to_string(catalogued));

  bench::Report report("s7_transport_zoo");
  report.text("scenario", "Table-1 catalogue x " +
                              std::to_string(kFamilies.size()) +
                              " transport families, fair vs unfair, " +
                              TextTable::num(seconds, 0) + " sim-s");
  bench::Json& block = report.object("transport_zoo");
  block.number("sim_s_per_wall_s", sim_per_wall);
  claims.report(block);
  block.count("runs", runs)
      .number("sim_s", sim_s)
      .number("wall_s", wall_s)
      .count("registered_transports", catalogued);
  bench::Json& families = block.object("families");
  for (const FamilyStats& fs : stats) {
    families.object(fs.name)
        .number("mean_fair_ms", fs.mean_fair_ms)
        .number("mean_unfair_ms", fs.mean_unfair_ms)
        .number("mean_speedup", fs.mean_speedup)
        .number("verdict_agreement",
                static_cast<double>(fs.verdict_matches) / kGroups.size());
  }
  return report.write(json_path) ? claims.exit_code() : 1;
}
