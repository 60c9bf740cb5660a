// Engine micro-benchmarks: fluid-engine throughput in simulated seconds per
// wall second, the JSONL trace path's cost, one water-fill allocation pass
// on a populated leaf-spine fabric, and DCQCN's rate-machine work on it.
//
//   perf_engine [--threads N] [--json FILE]
//
// measures (1) the DCQCN dumbbell's throughput (best of 7 runs: the least
// load-contaminated sample, the figure the regression tripwire compares),
// (2) the max-min dumbbell, (3) the same DCQCN run traced to JSONL, with
// the exact event and byte counts of one traced run, (4) one max-min
// water-fill pass over 128 flows, (5) the flow-ticks DCQCN steps on a
// leaf-spine run and the lazy share its pinned flows owe, and (6) an
// 8-point parameter sweep run serially and on a SweepRunner pool of N
// threads, which must be bit-identical.  Every timing is reported as its
// best, median and quartiles.  --json FILE writes the report
// (bench::Report) that tools/check_perf.py gates against
// BENCH_engine.json; the bench exits 1 when the sweep's claim misses.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/cli.h"
#include "cc/dcqcn.h"
#include "cc/factory.h"
#include "cc/water_fill.h"
#include "cluster/scenario.h"
#include "net/network.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

using namespace ccml;
using bench::Timing;
using bench::time_reps;

namespace {

constexpr double kSimSeconds = 4.0;

/// Two DLRM(2000) jobs sharing the dumbbell for kSimSeconds under `kind`.
ScenarioResult run_dlrm_dumbbell(PolicyKind kind, TraceBus* trace = nullptr) {
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  ScenarioConfig cfg;
  cfg.policy = kind;
  cfg.duration = Duration::seconds(static_cast<int>(kSimSeconds));
  cfg.warmup_iterations = 0;
  cfg.trace = trace;
  return run_dumbbell_scenario({{"J1", dlrm}, {"J2", dlrm}}, cfg);
}

/// The leaf-spine fabric of the kernel measurements: 4 ToRs x 8 hosts at
/// 50 Gbps, 4 spines at 100 Gbps.
Topology bench_fabric() {
  return Topology::leaf_spine(4, 8, 4, Rate::gbps(50), Rate::gbps(100));
}

/// Starts `flows` 1 GB flows on `net`: flow i from host i (mod 32) to host
/// 7i + 11 (mod 32), ECMP-hashed by i.
void start_fabric_flows(Network& net, int flows) {
  const Router router(net.topology());
  const auto hosts = net.topology().hosts();
  for (int i = 0; i < flows; ++i) {
    FlowSpec fs;
    fs.src = hosts[i % hosts.size()];
    fs.dst = hosts[(i * 7 + 11) % hosts.size()];
    if (fs.src == fs.dst) fs.dst = hosts[(i + 1) % hosts.size()];
    fs.route = router.pick(fs.src, fs.dst, i);
    if (fs.route.empty()) continue;
    fs.size = Bytes::giga(1);
    net.start_flow(std::move(fs));
  }
}

/// One max-min water-fill allocation pass over 128 flows on the leaf-spine
/// fabric (the ideal-policy kernel), timed pass by pass.
Timing waterfill_pass() {
  const Topology topo = bench_fabric();
  Simulator sim;
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  start_fabric_flows(net, 128);
  const auto slots = net.active_slots();
  return time_reps(1000, [&] {
    auto residual = full_residual(net);
    water_fill(net, slots, residual);
  });
}

/// DCQCN's rate-machine work over one untraced 10-sim-ms run of 40 flows on
/// the same fabric: the first 32 pair the hosts one to one, the last 8 add
/// a second flow to hosts 0-7, so the flows sharing those host links are
/// stepped while the rest stay pinned at line rate and owe their ticks.
/// Deterministic work counters.
DcqcnPolicy::Work dcqcn_fabric_work() {
  const Topology topo = bench_fabric();
  Simulator sim;
  auto policy = std::make_unique<DcqcnPolicy>();
  const DcqcnPolicy& dcqcn = *policy;
  Network net(topo, std::move(policy), {});
  net.attach(sim);
  start_fabric_flows(net, 40);
  sim.run_for(Duration::millis(10));
  return dcqcn.work();
}

bool same_stats(const ScenarioJobStats& a, const ScenarioJobStats& b) {
  return a.name == b.name && a.iterations == b.iterations &&
         a.mean_ms == b.mean_ms && a.median_ms == b.median_ms &&
         a.p95_ms == b.p95_ms && a.iteration_ms == b.iteration_ms;
}

bool same_result(const ScenarioResult& a, const ScenarioResult& b) {
  if (a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (!same_stats(a.jobs[i], b.jobs[i])) return false;
  }
  return true;
}

// One grid point of the sweep workload: the unfairness-degree ladder
// stretched to 8 points by interpolating the aggressive job's timer.
ScenarioResult sweep_point(double timer_us, int sim_seconds) {
  const auto dlrm = *ModelZoo::calibrated("DLRM", 2000);
  std::vector<ScenarioJob> jobs = {{"J1", dlrm}, {"J2", dlrm}};
  jobs[0].cc_timer = Duration::from_micros_f(timer_us);
  jobs[1].cc_timer = Duration::micros(300);
  ScenarioConfig cfg;
  cfg.policy = PolicyKind::kDcqcn;
  cfg.duration = Duration::seconds(sim_seconds);
  cfg.warmup_iterations = 0;
  return run_dumbbell_scenario(jobs, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags = {{"--threads", "4"},
                                              {"--json", ""}};
  bench::read_flags(argc, argv, flags);
  const auto sweep_threads = static_cast<unsigned>(
      bench::positive_count("--threads", flags["--threads"].c_str()));
  std::printf("perf_engine: DCQCN dumbbell (2 x DLRM(2000), %.0f sim-s)\n",
              kSimSeconds);
  bench::Report report("perf_engine");
  report.text("scenario", "DCQCN dumbbell, 2 x DLRM(2000), 4 sim-s")
      .count("hardware_threads", std::thread::hardware_concurrency());

  const Timing engine =
      time_reps(7, [] { run_dlrm_dumbbell(PolicyKind::kDcqcn); });
  const double sim_per_wall = kSimSeconds / (engine.best / 1000.0);
  std::printf("  engine: best %.2f ms, median %.2f [%.2f, %.2f] ms -> %.0f "
              "sim-s per wall-s\n",
              engine.best, engine.median, engine.q1, engine.q3, sim_per_wall);
  bench::Json& engine_block = report.object("engine");
  engine_block.number("sim_s_per_wall_s", sim_per_wall);
  engine.report(engine_block, "wall_ms");

  // Per-kernel breakdown: the max-min dumbbell, the trace path's cost over
  // the untraced run above, one water-fill pass and DCQCN's fabric work.
  const Timing maxmin =
      time_reps(7, [] { run_dlrm_dumbbell(PolicyKind::kMaxMinFair); });
  TraceBus counting_bus;
  run_dlrm_dumbbell(PolicyKind::kMaxMinFair, &counting_bus);
  const std::int64_t allocations =
      counting_bus.counter("ideal.allocations").value();
  std::ostringstream jsonl;
  const Timing traced = time_reps(3, [&jsonl] {
    jsonl.str("");
    TraceBus bus;
    JsonlSink sink(jsonl);
    bus.add_sink(sink);
    run_dlrm_dumbbell(PolicyKind::kDcqcn, &bus);
  });
  const std::string text = jsonl.str();
  const auto events = static_cast<std::uint64_t>(
      std::count(text.begin(), text.end(), '\n'));
  const double overhead_ms = traced.best - engine.best;
  const Timing waterfill = waterfill_pass();
  const DcqcnPolicy::Work dcqcn_work = dcqcn_fabric_work();
  std::printf("  maxmin: best %.2f ms (%.0f sim-s per wall-s), %lld "
              "allocations\n",
              maxmin.best, kSimSeconds / (maxmin.best / 1000.0),
              static_cast<long long>(allocations));
  std::printf("  traced: best %.2f ms, +%.2f ms over untraced (%llu events, "
              "%zu bytes, %.0f ns/event, %.2fx untraced)\n",
              traced.best, overhead_ms,
              static_cast<unsigned long long>(events), text.size(),
              overhead_ms * 1e6 / static_cast<double>(events),
              traced.best / engine.best);
  std::printf("  waterfill: best %.4f ms, median %.4f ms per pass\n",
              waterfill.best, waterfill.median);
  std::printf("  dcqcn fabric: %llu flow-ticks, %llu lazy\n",
              static_cast<unsigned long long>(dcqcn_work.flow_ticks),
              static_cast<unsigned long long>(dcqcn_work.flow_ticks_lazy));
  bench::Json& kernels = report.object("kernels");
  kernels.object("exact")
      .count("trace_events", events)
      .count("trace_bytes", text.size())
      .count("maxmin_allocations", static_cast<std::uint64_t>(allocations))
      .count("dcqcn_flow_ticks", dcqcn_work.flow_ticks)
      .count("dcqcn_flow_ticks_lazy", dcqcn_work.flow_ticks_lazy);
  maxmin.report(kernels, "maxmin_wall_ms");
  traced.report(kernels, "traced_wall_ms");
  waterfill.report(kernels, "waterfill_pass_ms");
  kernels.number("maxmin_sim_s_per_wall_s", kSimSeconds / (maxmin.best / 1000.0))
      .number("trace_overhead_ms", overhead_ms)
      .number("trace_ns_per_event",
              overhead_ms * 1e6 / static_cast<double>(events))
      .number("traced_over_untraced", traced.best / engine.best);

  // 8-point sweep, serial vs pooled; the results must match bit for bit.
  const std::vector<double> grid = {55, 80, 100, 125, 160, 200, 250, 300};
  const int sweep_sim_s = 4;
  const auto point = [&](double timer_us, std::size_t) {
    return sweep_point(timer_us, sweep_sim_s);
  };
  SweepOptions serial_opts;
  serial_opts.threads = 1;
  SweepRunner serial(serial_opts);
  std::vector<ScenarioResult> serial_results;
  const double serial_ms =
      time_reps(1, [&] { serial_results = serial.run(grid, point); }).best;
  SweepOptions pool_opts;
  pool_opts.threads = sweep_threads;
  SweepRunner pool(pool_opts);
  std::vector<ScenarioResult> pool_results;
  const double pool_ms =
      time_reps(1, [&] { pool_results = pool.run(grid, point); }).best;
  bool identical = serial_results.size() == pool_results.size();
  for (std::size_t i = 0; identical && i < grid.size(); ++i) {
    identical = same_result(serial_results[i], pool_results[i]);
  }
  std::printf("  sweep: %zu points, serial %.1f ms, %u threads %.1f ms, "
              "speedup %.2fx\n",
              grid.size(), serial_ms, pool.thread_count(), pool_ms,
              serial_ms / pool_ms);
  bench::Claims claims;
  claims.check("the pooled sweep is bit-identical to the serial one",
               identical, "results differ");
  bench::Json& sweep = report.object("sweep");
  claims.report(sweep);
  sweep.count("grid_points", grid.size())
      .count("sim_s_per_point", sweep_sim_s)
      .number("serial_wall_ms", serial_ms)
      .count("pool_threads", pool.thread_count())
      .number("pool_wall_ms", pool_ms)
      .number("speedup", serial_ms / pool_ms);
  return report.write(flags["--json"]) ? claims.exit_code() : 1;
}
