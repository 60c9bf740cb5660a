// perfbench_driver: runs one benchmark workload for a measurement window and
// prints one JSON line with its end-to-end and per-layer metrics, digests
// and host/build description.  perfbench/run.py builds and calls it.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--scale F] [--workdir DIR]
//
// A pass is one repetition of the workload's fixed work.  Untraced, every
// pass is plain (no trace probes).  sim_s_per_wall_s and cpu_s take each
// timed library call at its fastest repetition over the plain passes and add
// those up: on a shared host neighbours slow the program by 30-50% in bursts
// from under a second to minutes long, which moves a median over passes but
// rarely every repetition of a call.  Traced, plain and probed passes
// alternate: call spans and solver statistics come from the plain passes,
// trace counters and sink
// spans from the probed ones, and their wall-time difference is the tracing
// overhead.  Every pass must produce the same digest.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace {

using namespace perfbench;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr std::size_t kSetupSamples = 40;
constexpr std::size_t kSetupSamplesFirst = 5;
constexpr double kSetupSampleS = 0.004;
constexpr int kMaxSetupBatch = 1 << 16;
constexpr std::size_t kMinPasses = 3;  // per pass kind

struct Metric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed for every workload (0 where the workload
// does not exercise the layer).  perfbench/README.md maps each to the
// end-to-end metric it should move.
const Metric kLayerMetrics[] = {
    // core: compatibility solver (cluster-oversub).
    {"core.link_solve_s", "s"},
    {"core.link_solves", "count"},
    {"core.link_cache_hits", "count"},
    {"core.component_solves", "count"},
    {"core.component_cache_hits", "count"},
    {"core.warm_start_hits", "count"},
    {"core.nodes_explored", "count"},
    {"core.link_solve_ms_per_solve", "ms"},
    {"core.cache_hit_rate", "ratio"},
    {"core.link_solves.compat-graph.oversub1", "count"},
    {"core.link_solves.compat-graph.oversub2", "count"},
    {"core.link_solves.compat-graph.oversub4", "count"},
    {"core.link_solves.compat-single.oversub2", "count"},
    {"core.link_solves.compat-single.oversub4", "count"},
    {"core.component_solves.compat-graph.oversub1", "count"},
    {"core.component_solves.compat-graph.oversub2", "count"},
    {"core.component_solves.compat-graph.oversub4", "count"},
    {"core.component_solves.compat-single.oversub2", "count"},
    {"core.component_solves.compat-single.oversub4", "count"},
    // orch: online orchestrator (cluster-oversub).
    {"orch.run_s", "s"},
    {"orch.run_s.compat-graph.oversub1", "s"},
    {"orch.run_s.compat-graph.oversub2", "s"},
    {"orch.run_s.compat-graph.oversub4", "s"},
    {"orch.run_s.compat-single.oversub2", "s"},
    {"orch.run_s.compat-single.oversub4", "s"},
    {"orch.other_s", "s"},
    {"orch.admitted", "count"},
    {"orch.rejected", "count"},
    {"orch.finished", "count"},
    // cc / net / workload: rate kernels and fluid stepping (zoo-dumbbell).
    {"cc.dcqcn.run_s", "s"},
    {"cc.timely.run_s", "s"},
    {"cc.swift.run_s", "s"},
    {"cc.bbr.run_s", "s"},
    {"cc.mltcp-dcqcn.run_s", "s"},
    {"cc.maxmin.run_s", "s"},
    {"cc.dcqcn.cnp", "count"},
    {"cc.dcqcn.timer_fires", "count"},
    {"cc.timely.decreases", "count"},
    {"cc.swift.decreases", "count"},
    {"cc.bbr.phase_changes", "count"},
    {"workload.iterations", "count"},
    {"net.flows_started", "count"},
    {"net.flows_finished", "count"},
    // obs: trace formatting and analytics (traced-resume).
    {"obs.jsonl_s", "s"},
    {"obs.analytics_self_s", "s"},
    {"obs.report_s", "s"},
    {"obs.events", "count"},
    {"obs.bytes", "B"},
    {"obs.ns_per_event", "ns"},
    {"obs.events.rate-timer", "count"},
    {"obs.events.rate-decrease", "count"},
    {"obs.events.link-throughput", "count"},
    {"obs.events.link-queue", "count"},
    {"obs.bytes.rate-timer", "B"},
    {"obs.bytes.rate-decrease", "B"},
    {"obs.bytes.link-throughput", "B"},
    {"obs.bytes.link-queue", "B"},
    {"obs.share_of_record", "ratio"},
    {"cluster.scenario_self_s", "s"},
    {"trace.events", "count"},
    {"trace_overhead_s", "s"},
    // ckpt: snapshot capture and replay-verify (traced-resume).
    {"ckpt.snapshots", "count"},
    {"ckpt.snapshot_bytes", "B"},
    {"ckpt.load_s", "s"},
    {"ckpt.replay_to_cursor_s", "s"},
    {"ckpt.after_cursor_s", "s"},
    {"resume_s", "s"},
    {"trace_bytes_per_sim_s", "B/sim-s"},
};

struct Summary {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

// Quartiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.median = at(0.5);
  s.q1 = at(0.25);
  s.q3 = at(0.75);
  return s;
}

// A summary of samples (passes, set-up batches) whose value is replaced by
// the fastest figure; q1, q3 and n still describe the samples.
Summary fastest_of(Summary samples, double fastest) {
  samples.median = fastest;
  return samples;
}

struct CallTotals {
  double sim_s = 0.0, sim_wall_s = 0.0, cpu_s = 0.0;
  double sim_rate() const { return sim_wall_s > 0 ? sim_s / sim_wall_s : 0.0; }
};

CallTotals sum_calls(const std::vector<TimedCall>& calls) {
  CallTotals t;
  for (const TimedCall& c : calls) {
    t.cpu_s += c.cpu_s;
    if (c.sim_s > 0) {
      t.sim_s += c.sim_s;
      t.sim_wall_s += c.wall_s;
    }
  }
  return t;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metric(const Summary& s, const char* unit) {
  return "{\"value\": " + json_number(s.median) + ", \"unit\": " +
         json_string(unit) + ", \"q1\": " + json_number(s.q1) +
         ", \"q3\": " + json_number(s.q3) + ", \"n\": " + std::to_string(s.n) +
         "}";
}

// Peak resident set of this program image.  VmHWM restarts at exec, unlike
// getrusage's ru_maxrss, which would report the launching interpreter's peak.
double peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "cluster-oversub|zoo-dumbbell|traced-resume --seed N "
               "--seconds S --trace 0|1 [--scale F] [--workdir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  double scale = 1.0;
  std::string workdir = ".bench_build/perfbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      workload_name = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end != '\0' || !(seconds > 0)) usage("--seconds must be positive");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      trace = val[0] - '0';
    } else if (key == "--scale") {
      scale = std::strtod(val, &end);
      if (*end != '\0' || !(scale > 0 && scale <= 1)) {
        usage("--scale must be in (0, 1]");
      }
    } else if (key == "--workdir") {
      workdir = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (seconds <= 0 || trace < 0) usage("--seconds and --trace are required");

  // Host and build guard: numbers from an unoptimized build are refused,
  // and the build type travels with every number reported.
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench_driver: refusing to report from a build "
                         "without optimization (build type %s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::unique_ptr<Workload> workload;
  if (workload_name == "cluster-oversub") {
    workload = make_cluster_oversub();
  } else if (workload_name == "zoo-dumbbell") {
    workload = make_zoo_dumbbell();
  } else if (workload_name == "traced-resume") {
    workload = make_traced_resume(workdir + "/traced-resume");
  } else {
    usage(("unknown workload '" + workload_name + "'").c_str());
  }

  // Set-ups take microseconds, so each sample times a batch of them, sized
  // so that one batch lasts at least kSetupSampleS.
  const auto time_setups = [&](int batch) {
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < batch; ++j) workload->setup(seed, scale);
    return seconds_between(t0, Clock::now()) / batch;
  };
  int setup_batch = 1;
  while (setup_batch < kMaxSetupBatch &&
         time_setups(setup_batch) * setup_batch < kSetupSampleS) {
    setup_batch *= 2;
  }
  // The samples are spread evenly over the window (a few before the first
  // pass, then between passes in step with the elapsed time) and the
  // fastest is reported, like the calls below: set-up slows by up to 70%
  // while the host is busy.
  std::vector<double> setup_s;
  const auto sample_setups = [&](std::size_t upto) {
    while (setup_s.size() < std::min(upto, kSetupSamples)) {
      setup_s.push_back(time_setups(setup_batch));
    }
  };
  sample_setups(kSetupSamplesFirst);

  std::vector<double> rate, cpu, plain_wall, probed_wall;
  std::vector<TimedCall> fastest;  // each call's fastest plain repetition
  std::map<std::string, std::vector<double>> layers;
  std::size_t attempted = 0, failed = 0;
  std::set<std::string> digests;
  std::vector<std::string> errors;
  // Passes stop before one that would end past the window, as judged by
  // the last pass, so a run lasts about --seconds whatever a pass costs.
  const Clock::time_point start = Clock::now();
  double last_wall = 0.0;
  for (int i = 0;; ++i) {
    const bool enough = plain_wall.size() >= kMinPasses &&
                        (!trace || probed_wall.size() >= kMinPasses);
    if (enough && seconds_between(start, Clock::now()) + last_wall > seconds) {
      break;
    }
    const bool probed = trace && i % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    PassOutput pass = workload->run(probed);
    const double wall = seconds_between(t0, Clock::now());
    last_wall = wall;
    const double done = seconds_between(start, Clock::now()) / seconds;
    sample_setups(kSetupSamplesFirst +
                  static_cast<std::size_t>(
                      std::min(done, 1.0) *
                      static_cast<double>(kSetupSamples - kSetupSamplesFirst)));

    attempted += pass.runs;
    failed += pass.failed;
    for (std::string& e : pass.errors) {
      if (errors.size() < 8) errors.push_back(std::move(e));
    }
    digests.insert(hex64(fnv1a(pass.digest)));
    for (const auto& [name, value] : pass.layers) layers[name].push_back(value);
    if (probed) {
      probed_wall.push_back(wall);
    } else {
      plain_wall.push_back(wall);
      if (pass.failed != 0) continue;
      const CallTotals total = sum_calls(pass.calls);
      cpu.push_back(total.cpu_s);
      rate.push_back(total.sim_rate());
      if (fastest.empty()) {
        fastest = pass.calls;
      } else if (fastest.size() != pass.calls.size()) {
        errors.push_back("passes made different numbers of timed calls");
      } else {
        for (std::size_t k = 0; k < fastest.size(); ++k) {
          fastest[k].wall_s = std::min(fastest[k].wall_s, pass.calls[k].wall_s);
          fastest[k].cpu_s = std::min(fastest[k].cpu_s, pass.calls[k].cpu_s);
        }
      }
    }
  }
  sample_setups(kSetupSamples);
  const CallTotals best = sum_calls(fastest);
  if (trace) {
    layers["trace_overhead_s"] = {summarize(probed_wall).median -
                                  summarize(plain_wall).median};
  }
  const double peak_rss_mb = peak_rss_kb() / 1024.0;

  std::string json = "{\"workload\": " + json_string(workload_name);
  json += ", \"seed\": " + std::to_string(seed);
  json += ", \"scale\": " + json_number(scale);
  json += ", \"trace\": " + std::to_string(trace);
  json += ", \"host\": {\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  json += ", \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency());
  json += ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__);
  json += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  json += ", \"optimized\": true}";
  json += ", \"passes\": {\"plain\": " + std::to_string(plain_wall.size()) +
          ", \"probed\": " + std::to_string(probed_wall.size()) + "}";
  json += ", \"setup_batch\": " + std::to_string(setup_batch);
  json += ", \"runs\": " + std::to_string(attempted);
  json += ", \"runs_failed\": " + std::to_string(failed);
  json += ", \"digest\": " +
          json_string(digests.size() == 1 ? *digests.begin() : "UNSTABLE");
  json += ", \"digests\": [";
  for (auto it = digests.begin(); it != digests.end(); ++it) {
    json += (it == digests.begin() ? "" : ", ") + json_string(*it);
  }
  json += "], \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    json += (i ? ", " : "") + json_string(errors[i]);
  }
  json += "], \"end_to_end\": {";
  json += "\"sim_s_per_wall_s\": " +
          json_metric(fastest_of(summarize(rate), best.sim_rate()), "sim-s/s");
  json += ", \"cpu_s\": " +
          json_metric(fastest_of(summarize(cpu), best.cpu_s), "s");
  json += ", \"setup_s\": " +
          json_metric(fastest_of(summarize(setup_s),
                                 *std::min_element(setup_s.begin(), setup_s.end())),
                      "s");
  json += ", \"peak_rss_mb\": " +
          json_metric(Summary{peak_rss_mb, peak_rss_mb, peak_rss_mb, 1}, "MB");
  json += "}, \"per_layer\": {";
  bool first = true;
  for (const Metric& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    const Summary s =
        it == layers.end() ? Summary{} : summarize(it->second);
    json += (first ? "\"" : ", \"") + std::string(m.name) +
            "\": " + json_metric(s, m.unit);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
