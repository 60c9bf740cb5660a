// Micro-benchmarks (google-benchmark): fluid-engine throughput — simulated
// seconds per wall second for the policies, and water-fill allocation cost
// on a populated leaf-spine fabric.
//
// Besides the google-benchmark registrations, the binary has a machine-
// readable mode for CI and regression tracking:
//
//   perf_engine --json BENCH_engine.json [--baseline-ms M] [--threads N]
//
// which measures (1) the DCQCN dumbbell engine throughput in simulated
// seconds per wall second (best of several reps; pass the pre-change wall
// time per 4 sim-s via --baseline-ms to get a speedup ratio in the file)
// and (2) an 8-point parameter sweep run serially and with a SweepRunner
// pool, verifying the results are bit-identical and recording the wall
// times of both.  Its "kernels" block also prices the JSONL trace path:
// exact event and byte counts of one traced run, ns per event, and the
// traced/untraced wall-time ratio; the max-min dumbbell: its throughput
// and the exact number of allocations one run computes; and DCQCN's
// rate-machine work on a leaf-spine run: flow-ticks stepped and the lazy
// share its pinned flows owed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
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

double wall_ms_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
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

/// One max-min waterfill allocation pass over 128 flows on a leaf-spine
/// fabric (the ideal-policy kernel), best-of-reps, per-pass milliseconds.
double waterfill_pass_ms() {
  const Topology topo = bench_fabric();
  Simulator sim;
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  start_fabric_flows(net, 128);
  const auto slots = net.active_slots();
  constexpr int kPasses = 200;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double ms = wall_ms_of([&] {
      for (int i = 0; i < kPasses; ++i) {
        auto residual = full_residual(net);
        auto rates = water_fill(net, slots, residual);
        benchmark::DoNotOptimize(rates.size());
      }
    });
    if (ms < best) best = ms;
  }
  return best / kPasses;
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

struct TracedRun {
  double best_ms = 1e300;
  std::uint64_t events = 0;  ///< JSONL lines of one run (deterministic)
  std::uint64_t bytes = 0;   ///< JSONL bytes of one run (deterministic)
};

/// Best wall time of the engine scenario with a JSONL sink attached: the
/// delta over the untraced best is the cost of the trace path (event
/// construction + serialization), which untraced runs skip entirely.
TracedRun traced_best(int reps) {
  TracedRun best;
  for (int i = 0; i < reps; ++i) {
    std::ostringstream out;
    TraceBus bus;
    JsonlSink sink(out);
    bus.add_sink(sink);
    ScenarioResult r;
    const double ms =
        wall_ms_of([&] { r = run_dlrm_dumbbell(PolicyKind::kDcqcn, &bus); });
    benchmark::DoNotOptimize(r.jobs.size());
    const std::string text = out.str();
    best.bytes = text.size();
    best.events = static_cast<std::uint64_t>(
        std::count(text.begin(), text.end(), '\n'));
    if (ms < best.best_ms) best.best_ms = ms;
  }
  return best;
}

struct MaxMinRun {
  double best_ms = 1e300;
  std::int64_t allocations = 0;  ///< ideal.allocations of one run (exact)
};

/// Best untraced wall time of the max-min dumbbell, and the allocations one
/// run computes, counted on a bus with no sinks.
MaxMinRun maxmin_best(int reps) {
  MaxMinRun best;
  for (int i = 0; i < reps; ++i) {
    ScenarioResult r;
    const double ms =
        wall_ms_of([&] { r = run_dlrm_dumbbell(PolicyKind::kMaxMinFair); });
    benchmark::DoNotOptimize(r.jobs.size());
    if (ms < best.best_ms) best.best_ms = ms;
  }
  TraceBus bus;
  run_dlrm_dumbbell(PolicyKind::kMaxMinFair, &bus);
  best.allocations = bus.counter("ideal.allocations").value();
  return best;
}

void run_policy_benchmark(benchmark::State& state, PolicyKind kind) {
  for (auto _ : state) {
    const auto r = run_dlrm_dumbbell(kind);
    benchmark::DoNotOptimize(r.jobs[0].iterations);
  }
  state.counters["sim_s_per_iter"] = kSimSeconds;
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      kSimSeconds, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_EngineDcqcn(benchmark::State& state) {
  run_policy_benchmark(state, PolicyKind::kDcqcn);
}
BENCHMARK(BM_EngineDcqcn)->Unit(benchmark::kMillisecond);

void BM_EngineMaxMin(benchmark::State& state) {
  run_policy_benchmark(state, PolicyKind::kMaxMinFair);
}
BENCHMARK(BM_EngineMaxMin)->Unit(benchmark::kMillisecond);

void BM_EnginePriority(benchmark::State& state) {
  run_policy_benchmark(state, PolicyKind::kPriority);
}
BENCHMARK(BM_EnginePriority)->Unit(benchmark::kMillisecond);

void BM_WaterFill(benchmark::State& state) {
  const Topology topo = bench_fabric();
  Simulator sim;
  Network net(topo, make_policy(PolicyKind::kMaxMinFair), {});
  net.attach(sim);
  start_fabric_flows(net, static_cast<int>(state.range(0)));
  const auto slots = net.active_slots();
  for (auto _ : state) {
    auto residual = full_residual(net);
    auto rates = water_fill(net, slots, residual);
    benchmark::DoNotOptimize(rates.size());
  }
}
BENCHMARK(BM_WaterFill)->Arg(8)->Arg(32)->Arg(128);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      sim.schedule_at(TimePoint::from_ns(i * 100), [&fired] { ++fired; });
    }
    sim.run_until(TimePoint::from_ns(10'000 * 100));
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueueChurn)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --json mode

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

int run_json_mode(const std::string& path, double baseline_ms,
                  unsigned sweep_threads) {
  std::printf("perf_engine --json: DCQCN dumbbell (2 x DLRM(2000), %.0f "
              "sim-s)\n", kSimSeconds);

  // Engine throughput: best-of-N wall time for one 4-sim-s scenario.  The
  // best rep is the least load-contaminated sample, which is what a
  // regression gate should compare.
  constexpr int kReps = 7;
  double best_ms = 1e300;
  for (int i = 0; i < kReps; ++i) {
    ScenarioResult r;
    const double ms =
        wall_ms_of([&] { r = run_dlrm_dumbbell(PolicyKind::kDcqcn); });
    benchmark::DoNotOptimize(r.jobs.size());
    if (ms < best_ms) best_ms = ms;
    std::printf("  rep %d: %.2f ms\n", i + 1, ms);
  }
  const double sim_per_wall = kSimSeconds / (best_ms / 1000.0);
  std::printf("  best %.2f ms -> %.0f sim-s per wall-s\n", best_ms,
              sim_per_wall);

  // Per-kernel breakdown: the DCQCN fluid loop (the engine number above is
  // dominated by it), one waterfill allocation pass, the max-min dumbbell,
  // and the trace path's cost over an untraced run.
  const double waterfill_ms = waterfill_pass_ms();
  const DcqcnPolicy::Work dcqcn_work = dcqcn_fabric_work();
  const MaxMinRun maxmin = maxmin_best(kReps);
  const double maxmin_sim_per_wall = kSimSeconds / (maxmin.best_ms / 1000.0);
  const TracedRun traced = traced_best(3);
  const double traced_ms = traced.best_ms;
  const double trace_ns_per_event =
      (traced_ms - best_ms) * 1e6 / static_cast<double>(traced.events);
  std::printf("  kernels: dcqcn %.2f ms/4-sim-s, waterfill %.4f ms/pass, "
              "trace +%.2f ms when sinked (%llu events, %llu bytes, "
              "%.0f ns/event, %.2fx untraced)\n",
              best_ms, waterfill_ms, traced_ms - best_ms,
              static_cast<unsigned long long>(traced.events),
              static_cast<unsigned long long>(traced.bytes),
              trace_ns_per_event, traced_ms / best_ms);
  std::printf("  maxmin: %.2f ms/4-sim-s (%.0f sim-s per wall-s), %lld "
              "allocations\n",
              maxmin.best_ms, maxmin_sim_per_wall,
              static_cast<long long>(maxmin.allocations));
  std::printf("  dcqcn fabric: %llu flow-ticks, %llu lazy\n",
              static_cast<unsigned long long>(dcqcn_work.flow_ticks),
              static_cast<unsigned long long>(dcqcn_work.flow_ticks_lazy));

  // 8-point sweep, serial vs pooled, results must match bit-for-bit.
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
      wall_ms_of([&] { serial_results = serial.run(grid, point); });

  SweepOptions pool_opts;
  pool_opts.threads = sweep_threads;
  SweepRunner pool(pool_opts);
  std::vector<ScenarioResult> pool_results;
  const double pool_ms =
      wall_ms_of([&] { pool_results = pool.run(grid, point); });

  bool identical = serial_results.size() == pool_results.size();
  for (std::size_t i = 0; identical && i < grid.size(); ++i) {
    identical = same_result(serial_results[i], pool_results[i]);
  }
  std::printf("  sweep: %zu points, serial %.1f ms, %u threads %.1f ms, "
              "speedup %.2fx, bit-identical: %s\n",
              grid.size(), serial_ms, pool.thread_count(), pool_ms,
              serial_ms / pool_ms, identical ? "yes" : "NO");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"scenario\": \"DCQCN dumbbell, 2 x DLRM(2000), %.0f "
                  "sim-s\",\n", kSimSeconds);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"engine\": {\n");
  std::fprintf(f, "    \"reps\": %d,\n", kReps);
  std::fprintf(f, "    \"best_wall_ms\": %.3f,\n", best_ms);
  std::fprintf(f, "    \"sim_s_per_wall_s\": %.1f", sim_per_wall);
  if (baseline_ms > 0.0) {
    std::fprintf(f, ",\n    \"baseline_wall_ms\": %.3f,\n", baseline_ms);
    std::fprintf(f, "    \"baseline_sim_s_per_wall_s\": %.1f,\n",
                 kSimSeconds / (baseline_ms / 1000.0));
    std::fprintf(f, "    \"speedup\": %.2f\n", baseline_ms / best_ms);
  } else {
    std::fprintf(f, "\n");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"kernels\": {\n");
  std::fprintf(f, "    \"dcqcn_wall_ms\": %.3f,\n", best_ms);
  std::fprintf(f, "    \"waterfill_pass_ms\": %.4f,\n", waterfill_ms);
  std::fprintf(f, "    \"traced_wall_ms\": %.3f,\n", traced_ms);
  std::fprintf(f, "    \"trace_overhead_ms\": %.3f,\n", traced_ms - best_ms);
  std::fprintf(f, "    \"trace_events\": %llu,\n",
               static_cast<unsigned long long>(traced.events));
  std::fprintf(f, "    \"trace_bytes\": %llu,\n",
               static_cast<unsigned long long>(traced.bytes));
  std::fprintf(f, "    \"trace_ns_per_event\": %.1f,\n", trace_ns_per_event);
  std::fprintf(f, "    \"traced_over_untraced\": %.2f,\n",
               traced_ms / best_ms);
  std::fprintf(f, "    \"maxmin_allocations\": %lld,\n",
               static_cast<long long>(maxmin.allocations));
  std::fprintf(f, "    \"maxmin_sim_s_per_wall_s\": %.1f,\n",
               maxmin_sim_per_wall);
  std::fprintf(f, "    \"dcqcn_flow_ticks\": %llu,\n",
               static_cast<unsigned long long>(dcqcn_work.flow_ticks));
  std::fprintf(f, "    \"dcqcn_flow_ticks_lazy\": %llu\n",
               static_cast<unsigned long long>(dcqcn_work.flow_ticks_lazy));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"sweep\": {\n");
  std::fprintf(f, "    \"grid_points\": %zu,\n", grid.size());
  std::fprintf(f, "    \"sim_s_per_point\": %d,\n", sweep_sim_s);
  std::fprintf(f, "    \"serial_wall_ms\": %.1f,\n", serial_ms);
  std::fprintf(f, "    \"pool_threads\": %u,\n", pool.thread_count());
  std::fprintf(f, "    \"pool_wall_ms\": %.1f,\n", pool_ms);
  std::fprintf(f, "    \"speedup\": %.2f,\n", serial_ms / pool_ms);
  std::fprintf(f, "    \"bit_identical\": %s", identical ? "true" : "false");
  // Only when the host genuinely cannot show pool speedup: fewer hardware
  // threads than sweep threads (thread_count() already counts the calling
  // thread) means the pool time is core-bound, not a regression worth
  // chasing.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0 && hw < pool.thread_count()) {
    std::fprintf(f, ",\n    \"note\": \"pool speedup is bounded by available "
                    "cores (%u hardware threads for %u workers); on a "
                    "single-CPU host it cannot exceed 1.0\"\n", hw,
                 pool.thread_count());
  } else {
    std::fprintf(f, "\n");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  double baseline_ms = 0.0;
  unsigned sweep_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline-ms") == 0 && i + 1 < argc) {
      baseline_ms = bench::positive_number("--baseline-ms", argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      sweep_threads = static_cast<unsigned>(
          bench::positive_count("--threads", argv[++i]));
    }
  }
  if (!json_path.empty()) {
    return run_json_mode(json_path, baseline_ms, sweep_threads);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
