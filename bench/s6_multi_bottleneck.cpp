// Section 6 (beyond the paper's single-bottleneck assumption): the
// interference graph under fabric oversubscription.
//
// The paper's machinery assumes each job pair contends on ONE bottleneck.
// On an oversubscribed leaf-spine fabric that assumption breaks: a spanning
// job's route crosses two fabric hops that are *both* slower than the host
// links, so different neighbours contend with it on different links.  This
// bench sweeps the oversubscription ratio from 1:1 (fabric as fast as the
// hosts — the paper's regime) to 4:1 and replays the same Poisson arrival
// trace under three policies:
//   * locality        — admission blind to sharing (today's schedulers);
//   * compat-single   — compatibility-aware admission, but gates derived
//                       from ONE unified circle per sharing component (the
//                       legacy single-bottleneck model, over-constrained);
//   * compat-graph    — per-link circles + one globally consistent rotation
//                       per job (core/interference_graph.h, CASSINI §4).
// The metric is COMPLETION slowdown vs a dedicated cluster (queueing
// included): locality pays in congestion (it admits incompatible sharers
// that run ungated), compat-single pays in forfeited capacity (its joint
// circle cannot certify chain components that per-link schedules handle,
// so it defers them), and compat-graph certifies the chains, admits them
// immediately and gates them — the lowest mean overall, strictly below
// both baselines.
//
// The bench claims that compat-graph wins and that a determinism probe
// (same seed twice) gives byte-identical reports, and exits 1 on a miss.
// --json FILE writes its report (bench::Report): the engine throughput
// (simulated seconds per wall second over all runs), the claims and the
// solver's work, rotation assignments scored and wall ns per scoring; CI
// gates all but the ns via tools/check_perf.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/cli.h"
#include "orch/orchestrator.h"
#include "telemetry/table.h"

using namespace ccml;

namespace {

struct PolicyRow {
  const char* name;
  AdmissionPolicyKind admission;
  OrchestratorConfig::CircleMode circle;
};

constexpr PolicyRow kPolicies[] = {
    {"locality", AdmissionPolicyKind::kLocalityOnly,
     OrchestratorConfig::CircleMode::kGraph},
    {"compat-single", AdmissionPolicyKind::kCompatibilityAware,
     OrchestratorConfig::CircleMode::kSingleCircle},
    {"compat-graph", AdmissionPolicyKind::kCompatibilityAware,
     OrchestratorConfig::CircleMode::kGraph},
};

// Completion slowdown vs a dedicated cluster: (queueing delay + measured
// training time) over the analytic dedicated-network training time.  Pure
// network slowdown would hide the legacy single-circle model's real cost —
// it defers placements it cannot certify, so its jobs wait in queue while
// the fabric has room for them.
double completion_slowdown(const ClusterJobOutcome& j) {
  const double run_ms = static_cast<double>(j.iterations) * j.mean_ms;
  const double solo_ms = static_cast<double>(j.iterations) * j.solo_ms;
  return (j.queue_delay.to_millis() + run_ms) / solo_ms;
}

// Aggregate completion inflation over finished jobs: total time the batch
// spent in the system (queueing + training) over the time the same batch
// would have taken on dedicated networks.  The AGGREGATE ratio — not a
// mean of per-job ratios — so one short job with a long queue cannot
// dominate, and finished jobs only: a job truncated by the horizon ran an
// arbitrary sliver of its service, which distorts either normalization.
// A run in which no job finished has no value (nullopt), not 0.
std::optional<double> completion_inflation(const ClusterRunReport& r) {
  double spent_ms = 0.0;
  double solo_ms = 0.0;
  for (const ClusterJobOutcome& j : r.jobs) {
    if (j.state != ClusterJobOutcome::State::kFinished) continue;
    if (j.iterations == 0 || j.solo_ms <= 0.0) continue;
    const double iters = static_cast<double>(j.iterations);
    spent_ms += j.queue_delay.to_millis() + iters * j.mean_ms;
    solo_ms += iters * j.solo_ms;
  }
  if (solo_ms <= 0.0) return std::nullopt;
  return spent_ms / solo_ms;
}

constexpr double kNoData = std::numeric_limits<double>::quiet_NaN();

// A slowdown as printed: "n/a" for a value without data.
std::string slowdown_cell(double v) {
  return std::isnan(v) ? "n/a" : TextTable::num(v, 3);
}

double max_completion_slowdown(const ClusterRunReport& r) {
  double worst = 0.0;
  for (const ClusterJobOutcome& j : r.jobs) {
    if (j.state != ClusterJobOutcome::State::kFinished) continue;
    if (j.iterations == 0 || j.solo_ms <= 0.0) continue;
    worst = std::max(worst, completion_slowdown(j));
  }
  return worst;
}

ClusterRunReport run_policy(const Topology& topo,
                            const ArrivalSchedule& schedule,
                            const PolicyRow& row, Duration horizon) {
  OrchestratorConfig cfg;
  cfg.admission.policy = row.admission;
  cfg.circle = row.circle;
  cfg.horizon = horizon;
  return Orchestrator(topo, schedule, cfg).run();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags = {{"--seconds", "120"},
                                              {"--json", ""}};
  bench::read_flags(argc, argv, flags);
  const double seconds =
      bench::positive_number("--seconds", flags["--seconds"].c_str());
  const std::string json_path = flags["--json"];

  // 4 ToRs x 3 hosts, ONE spine; hosts at 50 Gb/s.  Per-ToR uplink
  // capacity is the fabric rate against 3 x 50 Gb/s of host demand, so the
  // oversubscription ratio is 150 / fabric_gbps.  Every job spans racks
  // (4 workers vs 3 hosts per rack); at saturation three run concurrently
  // and the third must bridge two partially-filled racks, so sharing
  // components CHAIN across different fabric links (A and C on ToR 1's
  // uplink, C and B on ToR 3's) — the regime where one joint circle and
  // per-link circles genuinely differ: the chain packs past density 1 on a
  // single circle while each pairwise link stays solvable.
  struct Point {
    double fabric_gbps;
    const char* ratio;
  };
  const std::vector<Point> sweep = {
      {150.0, "1:1"}, {75.0, "2:1"}, {37.5, "4:1"}};
  const std::vector<std::uint64_t> seeds = {21, 22, 23};

  std::printf("multi-bottleneck sweep: 4 ToRs x 3 hosts, 1 spine, "
              "oversubscription 1:1 -> 4:1, %.0f s horizon, %zu seeds\n\n",
              seconds, seeds.size());

  // Just past saturation: 12 worker slots / 4 workers = 3 concurrent jobs,
  // ~20 s mean service -> 9 jobs/min saturates; offer 10 so arrivals keep
  // three concurrent and the third must bridge — locality's queue stays
  // capacity-bound while the legacy joint-circle model queues every chain
  // it cannot certify on top of that.  Arrivals stop at the horizon but the
  // cluster keeps running 30 s longer, so deferred admissions drain and
  // finish instead of being censored out of the metric.
  ArrivalConfig acfg;
  acfg.rate_per_min = 10.0;
  acfg.min_service = Duration::seconds(12);
  acfg.mean_service_extra = Duration::seconds(8);
  acfg.horizon = Duration::from_seconds_f(seconds);
  const Duration run_horizon = Duration::from_seconds_f(seconds + 30.0);
  // Every job takes 4 workers on 3-host racks: it always spans two racks
  // (3+1 or 2+2), so its ring crosses the fabric, and at saturation the
  // third concurrent job must bridge two partially-filled racks — the
  // structural source of >= 3-job chain components.
  acfg.min_workers = 4;
  acfg.max_workers = 4;
  // Two job types, 4:1.  VGG19(1200) is the chain fuel: at the 4:1 profile
  // rate its comm fraction is ~0.43, so any two coexist on a link (density
  // 0.85) but three on ONE circle pack past density 1 — per-link circles
  // gate the chain, the joint circle cannot.  BERT(16) resolves to the
  // analytic profile (comm-dominated, fraction ~0.7): even pairs are
  // incompatible, which is what separates compatibility-aware admission
  // from locality.  VGG-heavy so >= 3-job chains are routine, not rare.
  acfg.catalog = {{"VGG19", 1200}, {"VGG19", 1200}, {"VGG19", 1200},
                  {"VGG19", 1200}, {"BERT", 16}};

  TextTable table({"oversub", "policy", "admitted", "rejected", "slowdown",
                   "worst job", "mean queue ms", "solves"});
  // Per policy, the sum and count of the points with data.
  double sum[3] = {0.0, 0.0, 0.0};
  int points[3] = {0, 0, 0};
  int runs = 0;
  // Solver work over every run: rotation assignments scored and the circle
  // segments they read (both deterministic), and the wall time spent solving.
  std::uint64_t evaluations = 0;
  std::uint64_t segments_walked = 0;
  std::uint64_t solver_micros = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Point& pt : sweep) {
    const Topology topo = Topology::leaf_spine(
        4, 3, 1, Rate::gbps(50), Rate::gbps(pt.fabric_gbps));
    // Inflation of each seed in which some job finished; a seed without a
    // finished job has no data and stays out of the point's mean.
    std::vector<double> inflation[3];
    double worst[3] = {0.0, 0.0, 0.0};
    double queue_ms[3] = {0.0, 0.0, 0.0};
    std::size_t admitted[3] = {0, 0, 0};
    std::size_t rejected[3] = {0, 0, 0};
    std::uint64_t solves[3] = {0, 0, 0};
    // The compatibility input: comm arcs modeled at the *dedicated* rate a
    // spanning job actually sees, which on an oversubscribed fabric is the
    // fabric rate, not the NIC rate.  Without this every schedule
    // underestimates arc lengths by the oversubscription factor and gating
    // degrades equally for every mode.
    acfg.profile_rate =
        Rate::gbps(std::min(42.5, 0.85 * pt.fabric_gbps));
    for (const std::uint64_t seed : seeds) {
      acfg.seed = seed;
      const ArrivalSchedule schedule = generate_arrivals(acfg);
      for (int p = 0; p < 3; ++p) {
        const ClusterRunReport r =
            run_policy(topo, schedule, kPolicies[p], run_horizon);
        if (const auto v = completion_inflation(r)) inflation[p].push_back(*v);
        worst[p] = std::max(worst[p], max_completion_slowdown(r));
        queue_ms[p] += r.mean_queue_delay_ms() / seeds.size();
        admitted[p] += r.admitted;
        rejected[p] += r.rejected;
        solves[p] += r.resolve.component_solves;
        evaluations += r.resolve.evaluations;
        segments_walked += r.resolve.segments_walked;
        solver_micros +=
            r.resolve.wall_micros + r.resolve.component_wall_micros;
        ++runs;
      }
    }
    for (int p = 0; p < 3; ++p) {
      double mean = kNoData;
      if (!inflation[p].empty()) {
        mean = 0.0;
        for (const double v : inflation[p]) mean += v / inflation[p].size();
        sum[p] += mean;
        ++points[p];
      }
      table.add_row({pt.ratio, kPolicies[p].name, std::to_string(admitted[p]),
                     std::to_string(rejected[p]), slowdown_cell(mean),
                     slowdown_cell(inflation[p].empty() ? kNoData : worst[p]),
                     TextTable::num(queue_ms[p], 1),
                     std::to_string(solves[p])});
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("%s\n", table.render().c_str());

  const double sim_s = runs * (seconds + 30.0);
  const double sim_per_wall = sim_s / wall_s;
  const auto sweep_mean = [&](int p) {
    return points[p] > 0 ? sum[p] / points[p] : kNoData;
  };
  const double locality = sweep_mean(0);
  const double single = sweep_mean(1);
  const double graph = sweep_mean(2);
  std::printf("mean slowdown over the sweep: locality %s, compat-single "
              "%s, compat-graph %s\n",
              slowdown_cell(locality).c_str(), slowdown_cell(single).c_str(),
              slowdown_cell(graph).c_str());
  std::printf("throughput: %d runs x %.0f sim-s in %.1f wall-s = %.0f "
              "sim-s/wall-s\n",
              runs, seconds + 30.0, wall_s, sim_per_wall);
  bench::Claims claims;
  // A mean without data compares false, so the claim misses, and its
  // actual reads null.
  const auto actual = [](double v) {
    return std::isnan(v) ? std::string("null") : TextTable::num(v, 3);
  };
  claims.check(
      "compat-graph is strictly below both baselines on mean slowdown",
      graph < locality && graph < single,
      actual(graph) + " vs " + actual(locality) + " / " + actual(single));

  // Determinism probe: the report is specified to be a pure function of
  // (topology, schedule, config); re-running the most contended point must
  // reproduce it byte-for-byte, or the throughput number means nothing.
  const Topology probe_topo =
      Topology::leaf_spine(4, 3, 1, Rate::gbps(50), Rate::gbps(37.5));
  acfg.seed = seeds.front();
  const ArrivalSchedule probe = generate_arrivals(acfg);
  const std::string once =
      run_policy(probe_topo, probe, kPolicies[2], run_horizon).summary();
  const std::string twice =
      run_policy(probe_topo, probe, kPolicies[2], run_horizon).summary();
  claims.check("a repeated 4:1 compat-graph run is byte-identical",
               once == twice, "divergent");

  bench::Report report("s6_multi_bottleneck");
  report.text("scenario", "leaf-spine oversubscription sweep 1:1 -> 4:1, "
                          "3 policies, " + std::to_string(seeds.size()) +
                          " seeds, " + TextTable::num(seconds, 0) + " sim-s");
  bench::Json& block = report.object("multi_bottleneck");
  block.number("sim_s_per_wall_s", sim_per_wall);
  block.object("exact")
      .count("solver_evaluations", evaluations)
      .count("segments_walked", segments_walked);
  claims.report(block);
  block.count("runs", runs).number("sim_s", sim_s).number("wall_s", wall_s);
  block.object("mean_slowdown")
      .number("locality", locality)
      .number("compat_single", single)
      .number("compat_graph", graph);
  block.number("ns_per_evaluation",
               evaluations > 0 ? solver_micros * 1e3 / evaluations : 0.0);
  return report.write(json_path) ? claims.exit_code() : 1;
}
