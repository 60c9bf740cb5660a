// ccml_sim — command-line driver for the library.
//
// Subcommands:
//   zoo                      list the model zoo and calibrated profiles
//   profile                  profile one job in isolation
//   solve                    run the compatibility solver on job profiles
//   scenario                 simulate jobs sharing a dumbbell bottleneck
//   faults                   scenario + scripted faults and recovery report
//   analyze                  replay a JSONL trace through the streaming
//                            analyzers and emit a run-health report
//   branch                   fork what-if continuations from a checkpoint
//
// Long runs can be checkpointed (--checkpoint-every) and, after a crash,
// resumed (--resume) with byte-identical output; see docs/robustness.md.
//
// Examples:
//   ccml_sim zoo
//   ccml_sim profile --model DLRM --batch 2000
//   ccml_sim solve --job period_ms=100,comm_ms=30 --job period_ms=100,comm_ms=30
//   ccml_sim scenario --policy dcqcn --seconds 20
//       --job model=DLRM,batch=2000,timer_us=55,rai_mbps=80
//       --job model=DLRM,batch=2000,timer_us=300,rai_mbps=40
//   ccml_sim analyze trace.jsonl --health-report health.json
//       --slo-min-fairness 0.8 --slo-max-anomalies 0
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cc/policy/registry.h"
#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "cluster/scenario.h"
#include "core/solver.h"
#include "faults/injector.h"
#include "obs/analytics/engine.h"
#include "obs/analytics/trace_reader.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "orch/orchestrator.h"
#include "sim/sweep.h"
#include "telemetry/table.h"
#include "workload/profiler.h"

using namespace ccml;

namespace {

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr, R"(usage: ccml_sim <command> [options]

commands:
  zoo                         list models and calibrated (model,batch) entries
  transports                  list registered transports with family,
                              admission goodput derating, MLTCP variants and
                              per-transport tunables
  profile --model M --batch B [--policy P] [--iterations N]
                              profile one job in isolation
  solve --job K=V[,K=V...] [--job ...] [--sectors N] [--capacity-gbps G]
                              compatibility of jobs on one link
       job keys: period_ms, comm_ms (or model+batch), demand_gbps
  scenario --job K=V[,K=V...] [--job ...] [--policy P] [--seconds S]
           [--flow-schedule 0|1] [--trace FILE]
           [--trace-format chrome|jsonl] [--trace-cadence-ms N]
           [--trace-async block|drop] [--health-report FILE|-] [--slo-*]
                              simulate jobs on a shared dumbbell bottleneck
       job keys: model, batch, name, compute_ms, comm_ms, timer_us,
                 rai_mbps, priority, weight, start_ms
       --flow-schedule 1 solves a CASSINI-style compatibility schedule at
       run start and gates every job with it (emits a solve event so the
       measured interleaving can be compared with the prediction)
  sweep --job K=V[,K=V...] [--job ...] --param P --values V1,V2,...
        [--policy P] [--seconds S] [--flow-schedule 0|1] [--threads N]
                              run the scenario once per grid value, fanned
                              across threads; results print in grid order
       params: timer_us | rai_mbps | start_ms (applied to the first job)
               bottleneck_gbps (applied to the fabric)
  faults --job K=V[,K=V...] [--job ...] [--policy P] [--seconds S]
         [--seed N] [--flap K=V,...] [--brownout K=V,...]
         [--straggler K=V,...] [--pause K=V,...] [--depart K=V,...]
         [--arrive K=V,...]
                              scenario with scripted faults; reports per-job
                              stats, the applied events and recovery metrics
       flap keys:      at_ms, for_ms, [link]   (default link: the bottleneck
                                               cable swL->swR, both ways)
       brownout keys:  at_ms, for_ms, factor, [link]
       straggler keys: at_ms, for_ms, job, slowdown
       pause keys:     at_ms, for_ms, job
       depart keys:    at_ms, job
       arrive keys:    at_ms, job
       also accepts --trace / --trace-format / --trace-cadence-ms /
                            --trace-async / --flow-schedule /
                            --health-report / --slo-*
  cluster [--seed N] [--seconds S] [--rate JOBS_PER_MIN] [--service-s S]
          [--admission locality|compat] [--queue-cap N] [--queue-timeout-s S]
          [--workers-min N] [--workers-max N] [--tors N] [--hosts N]
          [--spines N] [--policy P] [--flow-schedule 0|1]
          [--fabric-gbps G] [--circle single|graph]
          [--flap K=V,...] [--brownout K=V,...]
                              online orchestrator: Poisson job arrivals on a
                              leaf-spine fabric, admission control, and
                              incremental gate re-solving; the report is
                              byte-deterministic for a given seed
       flap/brownout keys as above (default link: tor0->spine0)
       also accepts --trace / --trace-format / --trace-cadence-ms /
                            --trace-async / --health-report / --slo-*
  analyze FILE [--health-report FILE|-] [--slo-*]
                              replay a JSONL trace (from --trace-format
                              jsonl) through the same streaming analyzers
                              the live run uses and emit the run-health
                              report; exits 1 when an SLO check fails
  branch --from SNAPSHOT [--vary admission=locality|compat]
         [--vary transport=POLICY] [--with-flap K=V,...]
         [--with-brownout K=V,...] [--threads N]
                              fork what-if continuations from a checkpoint:
                              each branch deterministically replays the
                              recorded history to the snapshot's cursor,
                              verifies it byte-for-byte, applies its
                              variation (admission policy, transport swap,
                              extra post-cursor link faults), runs to the
                              original horizon in memory, and is diffed
                              against the unmodified baseline continuation
  policies: maxmin | wfq | priority | dcqcn | dcqcn-adaptive | timely |
            swift | bbr | table | mltcp-dcqcn | mltcp-timely | mltcp-swift
            (run `ccml_sim transports` for the catalogue; `table` needs
            --cc-policy-table FILE in the ccml-cc-table v1 format)

tracing (scenario and faults):
  --trace FILE              write a structured trace of the run (flow
                            lifecycles, job phases/iterations, DCQCN rate
                            events, faults, link series) and print run
                            metrics afterwards
  --trace-format chrome     Chrome trace_event JSON; open in Perfetto
                            (https://ui.perfetto.dev) or chrome://tracing
                            [default]
  --trace-format jsonl      one JSON object per line (machine-diffable)
  --trace-cadence-ms N      link throughput/queue sampling period
                            [default 5; 0 disables the sampled series]
  --trace-async MODE        deliver events to the sink from a consumer
                            thread fed by a lock-free SPSC ring instead of
                            inline.  MODE block: lossless (producer waits
                            when the ring is full; output byte-identical to
                            inline delivery).  MODE drop: never stalls the
                            sim; overflow is counted in trace.dropped_events
                            and reported by a trailing trace-drops event

run health (scenario, faults, cluster and analyze):
  --health-report DEST      fold the event stream through the streaming
                            analyzers (src/obs/analytics) and write a
                            run-health JSON report — iteration/queue HDR
                            percentiles, measured interleaving vs the
                            solver's prediction, Jain fairness windows,
                            anomaly events and SLO verdicts — to DEST
                            ("-" = stdout).  On live runs this chains the
                            analytics in front of any --trace sink, so
                            derived anomaly.* events also land in the trace.
  --slo-min-fairness F      fail unless every fairness window's Jain >= F
  --slo-max-slowdown F      fail when mean slowdown-vs-dedicated > F
  --slo-max-p99-ms F        fail when any job's p99 iteration > F ms
  --slo-max-anomalies N     fail when more than N anomaly events fire
  --slo-require-anomaly 1   fail unless at least one anomaly fired (fault
                            runs must detect *something*)
  any --slo-* flag implies --health-report - ; a failed check exits 1

checkpointing (scenario, faults and cluster):
  --checkpoint-every MS     take a crash-safe snapshot of the full live
                            state (clock, flows, CC state, RNG streams,
                            fault and orchestrator state) every MS of
                            simulated time; each file is self-contained,
                            CRC-guarded and atomically renamed into
                            --checkpoint-dir (ckpt_<n>.ccml + latest.ccml)
  --checkpoint-dir DIR      snapshot directory [default: checkpoints]
  --resume FILE             resume a killed run: re-issue the *identical*
                            command line plus --resume FILE.  The run is
                            replayed from t=0 to the snapshot's cursor,
                            re-captured state is verified byte-for-byte
                            against the snapshot, the trace file is cut at
                            the cursor and appended to — the final trace
                            and health report are byte-identical to an
                            uninterrupted run's.  Checkpointed traces need
                            --trace-format jsonl; --trace-async drop is
                            incompatible with checkpointing

exit codes:
  0  success
  1  an SLO gate failed, or a faulted scenario never reconverged
  2  usage or generic runtime error
  3  watchdog tripped: the simulation wedged (SimulatorWedged)
  4  snapshot refused: corrupt, truncated, CRC mismatch, version from the
     future, or recorded by a different command line (SnapshotError)
  5  resume divergence: the replay did not byte-reproduce the snapshot
     (changed binary, changed spec, or nondeterminism) (ResumeDivergence)
)");
  std::exit(2);
}

std::map<std::string, std::string> parse_kv(const std::string& arg) {
  std::map<std::string, std::string> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) usage(("bad key=value: " + item).c_str());
    out[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return out;
}

/// The number under `key`, or `fallback` when absent.  The whole value must
/// parse as a finite number, and a duration key (`*_ms`, `*_us`) must not be
/// negative; anything else is a usage error naming the key.
double want_num(const std::map<std::string, std::string>& kv,
                const std::string& key, std::optional<double> fallback = {}) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    if (fallback) return *fallback;
    usage(("missing job key: " + key).c_str());
  }
  const std::string& text = it->second;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) {
    usage((key + "=" + text + ": expected a finite number").c_str());
  }
  if (v < 0 && (key.ends_with("_ms") || key.ends_with("_us"))) {
    usage((key + "=" + text + ": a duration must not be negative").c_str());
  }
  return v;
}

std::string want_str(const std::map<std::string, std::string>& kv,
                     const std::string& key, std::string fallback = "") {
  const auto it = kv.find(key);
  return it == kv.end() ? fallback : it->second;
}

/// The positive integer under `key` (batch sizes, worker counts).
int want_count(const std::map<std::string, std::string>& kv,
               const std::string& key, std::optional<double> fallback = {}) {
  const double v = want_num(kv, key, fallback);
  if (v < 1 || v > INT_MAX || v != std::floor(v)) {
    usage((key + "=" + want_str(kv, key) + ": expected a positive integer")
              .c_str());
  }
  return static_cast<int>(v);
}

JobProfile job_profile_from(const std::map<std::string, std::string>& kv) {
  const std::string model = want_str(kv, "model");
  if (!model.empty()) {
    const int batch = want_count(kv, "batch");
    const int workers = want_count(kv, "workers", 2.0);
    if (const auto cal = ModelZoo::calibrated(model, batch)) return *cal;
    return ModelZoo::analytic(model, batch, workers);
  }
  const double compute_ms = want_num(kv, "compute_ms");
  const double comm_ms = want_num(kv, "comm_ms", 0.0);
  return ModelZoo::synthetic(
      want_str(kv, "name", "job"), Duration::from_millis_f(compute_ms),
      Rate::gbps(42.5) * Duration::from_millis_f(comm_ms));
}

// --- Checkpoint plumbing -----------------------------------------------------

bool wants_analytics(const std::map<std::string, std::string>& opts);

/// Counts every logical byte the trace sink produces and forwards them to
/// the real file buffer — except the first `suppress` bytes, which a resume
/// replay regenerates but which are already on disk.  The count therefore
/// always means "bytes since t=0 of the run", whichever process wrote them.
class CountingBuf : public std::streambuf {
 public:
  CountingBuf(std::streambuf* dst, std::uint64_t suppress)
      : dst_(dst), suppress_(suppress) {}

  std::uint64_t logical_bytes() const { return count_; }

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    ++count_;
    if (count_ <= suppress_) return ch;
    return dst_->sputc(static_cast<char>(ch));
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::uint64_t before = count_;
    count_ += static_cast<std::uint64_t>(n);
    if (count_ <= suppress_) return n;  // still inside the replayed prefix
    const char* start = s;
    std::streamsize m = n;
    if (before < suppress_) {
      const auto skip = static_cast<std::streamsize>(suppress_ - before);
      start += skip;
      m -= skip;
    }
    dst_->sputn(start, m);
    return n;
  }

  int sync() override { return dst_->pubsync(); }

 private:
  std::streambuf* dst_;
  std::uint64_t suppress_;
  std::uint64_t count_ = 0;
};

/// Canonical textual spec of a run, stored as the "spec" section of every
/// snapshot: the command, every --job and fault flag in command-line order,
/// and every option that shapes the simulated trajectory.  Output paths
/// (--trace, --health-report, --checkpoint-dir) are normalized to presence
/// markers so a resumed run may write elsewhere, and --slo-* values only
/// gate the exit code; everything else — including --checkpoint-every,
/// whose ticks consume event budget — must match the recording run exactly.
std::string canonical_run_spec(
    const std::string& cmd, const std::vector<std::string>& job_args,
    const std::vector<std::pair<std::string, std::string>>& fault_args,
    const std::map<std::string, std::string>& opts) {
  std::string s = "ccml-run-spec v1\ncmd=" + cmd + "\n";
  for (const auto& j : job_args) s += "job=" + j + "\n";
  for (const auto& [kind, arg] : fault_args) {
    s += "fault." + kind + "=" + arg + "\n";
  }
  for (const auto& [k, v] : opts) {
    if (k == "resume" || k == "checkpoint-dir" || k == "threads" ||
        k == "health-report" || k.rfind("slo-", 0) == 0) {
      continue;
    }
    if (k == "trace") {
      s += "opt.trace=1\n";
      continue;
    }
    s += "opt." + k + "=" + v + "\n";
  }
  if (wants_analytics(opts)) s += "opt.health=1\n";
  return s;
}

/// A spec parsed back out of a snapshot — enough to reconstruct and replay
/// the recorded run without the original command line (`ccml_sim branch`).
struct RunSpec {
  std::string cmd;
  std::vector<std::string> job_args;
  std::vector<std::pair<std::string, std::string>> fault_args;
  std::map<std::string, std::string> opts;
  bool traced = false;  ///< the recording run had a --trace file sink
  bool health = false;  ///< ... and/or a run-health analytics engine
};

RunSpec parse_run_spec(const std::string& spec) {
  RunSpec rs;
  std::stringstream ss(spec);
  std::string line;
  bool header = false;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    if (line == "ccml-run-spec v1") {
      header = true;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw SnapshotError("malformed run spec line: " + line);
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "cmd") {
      rs.cmd = value;
    } else if (key == "job") {
      rs.job_args.push_back(value);
    } else if (key.rfind("fault.", 0) == 0) {
      rs.fault_args.emplace_back(key.substr(6), value);
    } else if (key == "opt.trace") {
      rs.traced = true;
    } else if (key == "opt.health") {
      rs.health = true;
    } else if (key.rfind("opt.", 0) == 0) {
      rs.opts[key.substr(4)] = value;
    } else {
      throw SnapshotError("malformed run spec line: " + line);
    }
  }
  if (!header || rs.cmd.empty()) {
    throw SnapshotError("snapshot run spec is not in ccml-run-spec v1 format");
  }
  return rs;
}

int cmd_zoo() {
  std::printf("models:\n");
  TextTable models({"model", "params (M)", "fwd us/sample"});
  for (const auto& m : ModelZoo::models()) {
    models.add_row({m.name, TextTable::num(m.params_millions, 1),
                    TextTable::num(m.fwd_us_per_sample, 1)});
  }
  std::printf("%s\n", models.render().c_str());
  std::printf("calibrated Table-1 profiles (at 42.5 Gbps effective):\n");
  TextTable cal({"model", "batch", "compute ms", "comm MB", "solo ms"});
  const std::pair<const char*, int> entries[] = {
      {"BERT", 8},      {"VGG19", 1200},      {"DLRM", 2000},
      {"VGG19", 1400},  {"WideResNet", 800},  {"VGG16", 1400},
      {"VGG16", 1700},  {"ResNet50", 1600},
  };
  for (const auto& [model, batch] : entries) {
    const auto p = ModelZoo::calibrated(model, batch);
    if (!p) continue;
    cal.add_row({model, std::to_string(batch),
                 TextTable::num(p->fwd_compute.to_millis(), 0),
                 TextTable::num(p->comm_bytes.to_mb(), 0),
                 TextTable::num(
                     p->solo_iteration(Rate::gbps(42.5)).to_millis(), 0)});
  }
  std::printf("%s", cal.render().c_str());
  return 0;
}

int cmd_transports() {
  std::printf("registered transports:\n");
  TextTable table({"name", "family", "mltcp", "derating", "summary"});
  for (const TransportInfo& t : transport_catalogue()) {
    table.add_row({t.name, t.family, t.mltcp_wrappable ? "yes" : "-",
                   TextTable::num(t.goodput_derating, 2), t.summary});
  }
  std::printf("%s\n", table.render().c_str());
  for (const TransportInfo& t : transport_catalogue()) {
    if (t.tunables.empty()) continue;
    std::printf("%s tunables:\n", t.name);
    TextTable tt({"tunable", "preset", "meaning"});
    for (const TransportTunable& k : t.tunables) {
      tt.add_row({k.name, k.preset, k.meaning});
    }
    std::printf("%s\n", tt.render().c_str());
  }
  std::printf(
      "MLTCP variants scale the base transport's additive-increase step by\n"
      "(1 + bytes_sent/phase_bytes); `derating` is the goodput factor the\n"
      "orchestrator's admission model multiplies in for that transport.\n");
  return 0;
}

int cmd_profile(const std::map<std::string, std::string>& opts) {
  std::map<std::string, std::string> kv;
  if (opts.contains("model")) kv["model"] = opts.at("model");
  if (opts.contains("batch")) kv["batch"] = opts.at("batch");
  const JobProfile job = job_profile_from(kv);
  ProfilerOptions popts;
  if (opts.contains("iterations")) {
    popts.iterations = std::atoi(opts.at("iterations").c_str());
  }
  if (opts.contains("policy")) {
    popts.policy = parse_policy_kind(opts.at("policy"));
  }
  const MeasuredProfile m = measure_profile(job, popts);
  std::printf("model %s (batch %d) under %s:\n", job.model.c_str(), job.batch,
              to_string(popts.policy));
  std::printf("  mean iteration  %8.2f ms\n", m.mean_iteration.to_millis());
  std::printf("  p99 iteration   %8.2f ms\n", m.p99_iteration.to_millis());
  std::printf("  comm goodput    %8.2f Gbps\n", m.mean_comm_rate.to_gbps());
  std::printf("  comm fraction   %8.2f\n", m.profile.comm_fraction());
  std::printf("  circle: period %.2f ms, arcs:", m.profile.period.to_millis());
  for (const Arc& a : m.profile.arcs) {
    std::printf(" [%.1f, %.1f)", a.start.to_millis(),
                (a.start + a.length).to_millis());
  }
  std::printf("\n");
  return 0;
}

int cmd_solve(const std::vector<std::string>& job_args,
              const std::map<std::string, std::string>& opts) {
  if (job_args.size() < 2) usage("solve needs at least two --job");
  std::vector<CommProfile> profiles;
  for (const auto& arg : job_args) {
    const auto kv = parse_kv(arg);
    if (kv.contains("period_ms")) {
      const double period = want_num(kv, "period_ms");
      const double comm = want_num(kv, "comm_ms");
      profiles.push_back(CommProfile::single_phase(
          want_str(kv, "name", "job" + std::to_string(profiles.size())),
          Duration::from_millis_f(period),
          Duration::from_millis_f(period - comm),
          Rate::gbps(want_num(kv, "demand_gbps", 42.5))));
    } else {
      profiles.push_back(
          analytic_profile(job_profile_from(kv), Rate::gbps(42.5)));
    }
  }
  SolverOptions sopts;
  if (opts.contains("sectors")) sopts.sectors = want_count(opts, "sectors");
  if (opts.contains("capacity-gbps")) {
    const double gbps = want_num(opts, "capacity-gbps");
    if (gbps <= 0) {
      usage(("capacity-gbps=" + opts.at("capacity-gbps") +
             ": expected a positive number")
                .c_str());
    }
    sopts.mode = SolverOptions::Mode::kBandwidth;
    sopts.link_capacity = Rate::gbps(gbps);
  }
  const SolverResult r = CompatibilitySolver(sopts).solve(profiles);
  std::printf("verdict: %s%s\n", r.compatible ? "COMPATIBLE" : "incompatible",
              r.proven ? "" : " (not proven; search budget exhausted)");
  std::printf("residual violation: %.4f of the unified circle\n",
              r.violation_fraction);
  for (std::size_t j = 0; j < profiles.size(); ++j) {
    std::printf("  %-10s period %8.2f ms  comm %5.1f%%  rotation %8.2f ms\n",
                profiles[j].name.c_str(), profiles[j].period.to_millis(),
                100.0 * profiles[j].comm_fraction(),
                r.rotations[j].to_millis());
  }
  return r.compatible ? 0 : 1;
}

/// Parses the --slo-* family into the engine's SLO gate config.
SloConfig parse_slo(const std::map<std::string, std::string>& opts) {
  SloConfig slo;
  if (opts.contains("slo-min-fairness")) {
    slo.min_fairness = std::atof(opts.at("slo-min-fairness").c_str());
  }
  if (opts.contains("slo-max-slowdown")) {
    slo.max_mean_slowdown = std::atof(opts.at("slo-max-slowdown").c_str());
  }
  if (opts.contains("slo-max-p99-ms")) {
    slo.max_p99_iteration_ms = std::atof(opts.at("slo-max-p99-ms").c_str());
  }
  if (opts.contains("slo-max-anomalies")) {
    slo.max_anomalies = std::atoi(opts.at("slo-max-anomalies").c_str());
  }
  if (opts.contains("slo-require-anomaly")) {
    slo.require_anomaly = std::atoi(opts.at("slo-require-anomaly").c_str()) != 0;
  }
  return slo;
}

/// True when the command line asks for run-health analytics.
bool wants_analytics(const std::map<std::string, std::string>& opts) {
  if (opts.contains("health-report")) return true;
  for (const auto& [key, value] : opts) {
    if (key.rfind("slo-", 0) == 0) return true;
  }
  return false;
}

/// Renders the run-health report to --health-report's destination ("-" or
/// unset = stdout) and prints the lower-bound warning when the async ring
/// dropped events.  Returns 1 when an SLO check failed, else 0.
int emit_health_report(const AnalyticsEngine& engine,
                       const std::map<std::string, std::string>& opts) {
  const RunHealthReport report = engine.report(parse_slo(opts));
  const std::string dest =
      opts.contains("health-report") ? opts.at("health-report") : "-";
  if (dest == "-") {
    std::printf("%s", report.json.c_str());
  } else {
    std::ofstream f(dest);
    if (!f) usage(("cannot open health report file: " + dest).c_str());
    f << report.json;
    std::printf("\nrun-health report written to %s (%s)\n", dest.c_str(),
                report.pass ? "PASS" : "FAIL");
  }
  if (engine.trace_drops() > 0) {
    std::fprintf(stderr,
                 "warning: %llu trace events were dropped (--trace-async "
                 "drop); analytics and anomaly counts are a lower bound\n",
                 static_cast<unsigned long long>(engine.trace_drops()));
  }
  return report.pass ? 0 : 1;
}

/// Builds the trace bus, the optional file sink requested by --trace /
/// --trace-format / --trace-cadence-ms, and the optional AnalyticsEngine
/// requested by --health-report / --slo-*.  When both are present the
/// engine is the bus's only sink and *chains* to the file sink, so derived
/// anomaly.* events interleave deterministically with the raw stream.
/// `configure` returns the bus to hang on the scenario config (nullptr when
/// neither is requested); `finish` finalizes the file and prints the
/// run-metrics summary; `health_exit_code` evaluates the SLO gates.
struct TraceSetup {
  /// Resume only: logical trace bytes at the snapshot's cursor.  Set before
  /// configure(); the existing file is cut to exactly this many bytes and
  /// re-opened for append, and the first resume_suppress bytes the replay
  /// regenerates are discarded instead of re-written — the stitched file is
  /// byte-identical to the one an uninterrupted run would have produced.
  std::uint64_t resume_suppress = 0;

  TraceBus* configure(const std::map<std::string, std::string>& opts) {
    const bool want_file = opts.contains("trace");
    const bool want_health = wants_analytics(opts);
    if (!want_file && !want_health) return nullptr;
    const Duration cadence = Duration::from_millis_f(
        opts.contains("trace-cadence-ms")
            ? std::atof(opts.at("trace-cadence-ms").c_str())
            : 5.0);
    if (want_file) {
      path = opts.at("trace");
      std::uint64_t suppress = 0;
      std::error_code ec;
      if (resume_suppress > 0 && std::filesystem::exists(path, ec)) {
        const std::uint64_t size = std::filesystem::file_size(path);
        if (size < resume_suppress) {
          throw SnapshotError(
              "trace file '" + path + "' has " + std::to_string(size) +
              " bytes but the snapshot's cursor is at byte " +
              std::to_string(resume_suppress) +
              " — this is not the file the snapshotted run was writing");
        }
        // Drop bytes the killed run wrote past the checkpoint; the replay
        // regenerates them (and everything after) deterministically.
        if (size > resume_suppress) {
          std::filesystem::resize_file(path, resume_suppress);
        }
        out.open(path, std::ios::binary | std::ios::app);
        suppress = resume_suppress;
      } else {
        out.open(path, std::ios::binary | std::ios::trunc);
      }
      if (!out) usage(("cannot open trace file: " + path).c_str());
      counting = std::make_unique<CountingBuf>(out.rdbuf(), suppress);
      stream = std::make_unique<std::ostream>(counting.get());
      const std::string format =
          opts.contains("trace-format") ? opts.at("trace-format") : "chrome";
      if (format == "chrome") {
        ChromeTraceSinkOptions copts;
        copts.sample_cadence = cadence;
        sink = std::make_unique<ChromeTraceSink>(*stream, copts);
      } else if (format == "jsonl") {
        JsonlSinkOptions jopts;
        jopts.sample_cadence = cadence;
        sink = std::make_unique<JsonlSink>(*stream, jopts);
      } else {
        usage(("unknown trace format: " + format +
               " (expected chrome or jsonl)")
                  .c_str());
      }
    }
    if (want_health) {
      AnalyticsConfig acfg;
      acfg.sample_cadence = cadence;
      engine = std::make_unique<AnalyticsEngine>(acfg);
      engine->set_output(sink.get());
      bus.add_sink(*engine);
    } else {
      bus.add_sink(*sink);
    }
    if (opts.contains("trace-async")) {
      TraceAsyncOptions aopts;
      const std::string& mode = opts.at("trace-async");
      if (mode == "drop") {
        aopts.overflow = TraceOverflowPolicy::kDropNewest;
      } else if (!mode.empty() && mode != "block") {
        usage(("unknown --trace-async mode: " + mode +
               " (expected block or drop)")
                  .c_str());
      }
      bus.start_async(aopts);
    }
    enabled = true;
    return &bus;
  }

  void finish() {
    if (!enabled) return;
    bus.flush();  // stops the async consumer (full drain) before finalizing
    if (!path.empty()) {
      stream->flush();
      out.close();
      std::printf("\ntrace written to %s\n", path.c_str());
    }
    std::printf("\n%s", bus.metrics_summary().c_str());
  }

  /// Call after finish(); 1 when an enabled SLO gate failed, else 0.
  int health_exit_code(const std::map<std::string, std::string>& opts) const {
    return engine ? emit_health_report(*engine, opts) : 0;
  }

  bool has_file() const { return counting != nullptr; }

  /// Logical bytes the file sink has produced since t=0 of the run
  /// (suppressed + written), flushed through to the OS first so a SIGKILL
  /// after the snapshot lands can never lose bytes its cursor claims exist.
  std::uint64_t logical_trace_bytes() {
    if (stream) stream->flush();
    return counting ? counting->logical_bytes() : 0;
  }

  bool enabled = false;
  std::string path;
  std::ofstream out;
  std::unique_ptr<CountingBuf> counting;
  std::unique_ptr<std::ostream> stream;
  TraceBus bus;
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<AnalyticsEngine> engine;
};

/// Parses --checkpoint-every / --checkpoint-dir / --resume into a
/// CheckpointCoordinator.  On resume it loads and validates the snapshot,
/// refuses a spec recorded by a different command line, and primes the
/// TraceSetup with the cursor's trace-byte position for file stitching.
struct CheckpointSetup {
  std::unique_ptr<CheckpointCoordinator> ck;
  bool resuming = false;

  CheckpointCoordinator* configure(const std::string& spec,
                                   const std::map<std::string, std::string>& opts,
                                   TraceSetup& trace) {
    const bool resume = opts.contains("resume");
    if (!opts.contains("checkpoint-every")) {
      if (resume) {
        usage("--resume needs the recording run's --checkpoint-every (re-issue "
              "the identical command line plus --resume)");
      }
      return nullptr;
    }
    // Checkpointing counts and stitches trace bytes, which needs the
    // line-oriented lossless path: the chrome sink buffers everything until
    // the end of the run, and drop-mode async discards events the byte
    // counter never sees.
    if (opts.contains("trace")) {
      const std::string format =
          opts.contains("trace-format") ? opts.at("trace-format") : "chrome";
      if (format != "jsonl") {
        usage("checkpointing a traced run requires --trace-format jsonl");
      }
    }
    if (opts.contains("trace-async") && opts.at("trace-async") == "drop") {
      usage("--trace-async drop discards events nondeterministically and "
            "cannot be checkpointed; use block");
    }
    const double every_ms = std::atof(opts.at("checkpoint-every").c_str());
    if (every_ms <= 0) usage("--checkpoint-every must be a positive ms value");

    CheckpointCoordinator::Options co;
    co.every = Duration::from_millis_f(every_ms);
    co.dir = opts.contains("checkpoint-dir") ? opts.at("checkpoint-dir")
                                             : "checkpoints";
    co.run_spec = spec;
    if (resume) {
      Snapshot target = Snapshot::load(opts.at("resume"));
      if (target.get("spec") != spec) {
        throw SnapshotError(
            "snapshot '" + opts.at("resume") +
            "' was recorded by a different run: re-issue the identical "
            "command line plus --resume (output paths may differ; jobs, "
            "faults, seeds, durations and --checkpoint-every may not)");
      }
      const auto cursor = CheckpointCoordinator::read_cursor(target);
      co.mode = CheckpointCoordinator::Mode::kReplayVerify;
      co.target_seq = cursor.seq;
      co.target = std::move(target);
      trace.resume_suppress = cursor.trace_bytes;
      resuming = true;
      std::fprintf(stderr,
                   "resuming from %s: checkpoint %llu at %.1f ms (%llu events, "
                   "%llu trace bytes); replaying to the cursor...\n",
                   opts.at("resume").c_str(),
                   static_cast<unsigned long long>(cursor.seq),
                   static_cast<double>(cursor.time_ns) / 1e6,
                   static_cast<unsigned long long>(cursor.events_executed),
                   static_cast<unsigned long long>(cursor.trace_bytes));
    }
    ck = std::make_unique<CheckpointCoordinator>(std::move(co));
    return ck.get();
  }

  /// Call after the run: a resume whose replay ended before ever reaching
  /// the cursor verified nothing and must not pass silently.
  void check_verified() const {
    if (resuming && ck && !ck->verified()) {
      throw ResumeDivergence(
          "replay finished without reaching the snapshot's cursor (checkpoint " +
          std::to_string(ck->options().target_seq) +
          ") — was the recorded run longer than this one?");
    }
    if (resuming && ck) {
      std::fprintf(stderr, "resume verified byte-identical at the cursor; "
                           "continued to completion\n");
    }
  }
};

std::vector<ScenarioJob> parse_scenario_jobs(
    const std::vector<std::string>& job_args) {
  std::vector<ScenarioJob> jobs;
  for (const auto& arg : job_args) {
    const auto kv = parse_kv(arg);
    ScenarioJob job;
    job.profile = job_profile_from(kv);
    job.name = want_str(kv, "name",
                        job.profile.model.empty()
                            ? "job" + std::to_string(jobs.size())
                            : job.profile.model + "#" +
                                  std::to_string(jobs.size()));
    if (kv.contains("timer_us")) {
      job.cc_timer = Duration::from_micros_f(want_num(kv, "timer_us"));
    }
    if (kv.contains("rai_mbps")) {
      job.cc_rai = Rate::mbps(want_num(kv, "rai_mbps"));
    }
    job.priority = static_cast<int>(want_num(kv, "priority", 0.0));
    job.weight = want_num(kv, "weight", 1.0);
    job.start_offset = Duration::from_millis_f(want_num(kv, "start_ms", 0.0));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The --policy / --cc-policy-table / --seconds / --flow-schedule options
/// shared by scenario, faults, sweep, and branch replays.
void apply_scenario_opts(ScenarioConfig& cfg,
                         const std::map<std::string, std::string>& opts) {
  if (opts.contains("policy")) {
    cfg.policy = parse_policy_kind(opts.at("policy"));
  }
  if (opts.contains("cc-policy-table")) {
    cfg.transports.table.table =
        CcPolicyTable::load(opts.at("cc-policy-table"));
  }
  cfg.duration =
      Duration::seconds(opts.contains("seconds")
                            ? std::atoi(opts.at("seconds").c_str())
                            : 20);
  if (opts.contains("flow-schedule")) {
    cfg.flow_schedule = std::atoi(opts.at("flow-schedule").c_str()) != 0;
  }
}

/// A post-warmup statistic in ms, or "n/a" when every iteration of the job
/// fell inside the warmup and the sample is empty.
std::string post_warmup_ms(const ScenarioJobStats& j, double ms) {
  return j.cdf.empty() ? "n/a" : TextTable::num(ms, 1);
}

int cmd_scenario(const std::vector<std::string>& job_args,
                 const std::map<std::string, std::string>& opts) {
  if (job_args.empty()) usage("scenario needs at least one --job");
  const std::vector<ScenarioJob> jobs = parse_scenario_jobs(job_args);
  ScenarioConfig cfg;
  apply_scenario_opts(cfg, opts);
  const std::string spec = canonical_run_spec("scenario", job_args, {}, opts);
  TraceSetup trace;
  CheckpointSetup ckpt;
  cfg.checkpoint = ckpt.configure(spec, opts, trace);
  cfg.trace = trace.configure(opts);
  if (cfg.checkpoint != nullptr && trace.has_file()) {
    cfg.checkpoint->set_trace_bytes_fn(
        [&trace] { return trace.logical_trace_bytes(); });
  }
  const auto result = run_dumbbell_scenario(jobs, cfg);
  ckpt.check_verified();

  std::printf("policy %s, %zu jobs, %.0f s simulated:\n\n",
              to_string(cfg.policy), jobs.size(), cfg.duration.to_seconds());
  TextTable table({"job", "iterations", "mean ms", "median ms", "p95 ms",
                   "solo ms"});
  const Rate goodput = scenario_goodput(cfg);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const auto& j = result.jobs[i];
    table.add_row({j.name, std::to_string(j.iterations),
                   post_warmup_ms(j, j.mean_ms), post_warmup_ms(j, j.median_ms),
                   post_warmup_ms(j, j.p95_ms),
                   TextTable::num(
                       jobs[i].profile.solo_iteration(goodput).to_millis(),
                       1)});
  }
  std::printf("%s", table.render().c_str());
  trace.finish();
  return trace.health_exit_code(opts);
}

FaultPlan parse_fault_plan(
    const std::vector<std::pair<std::string, std::string>>& fault_args,
    std::size_t job_count, const std::map<std::string, std::string>& opts) {
  FaultPlan plan;
  if (opts.contains("seed")) {
    plan.seed = static_cast<std::uint64_t>(std::atoll(opts.at("seed").c_str()));
  }
  const auto at = [](const std::map<std::string, std::string>& kv) {
    return TimePoint::origin() + Duration::from_millis_f(want_num(kv, "at_ms"));
  };
  const auto job_id = [&](const std::map<std::string, std::string>& kv) {
    const int j = static_cast<int>(want_num(kv, "job"));
    if (j < 0 || static_cast<std::size_t>(j) >= job_count) {
      usage(("fault references job " + std::to_string(j) + ", but only " +
             std::to_string(job_count) + " jobs are defined")
                .c_str());
    }
    return JobId{j};
  };
  for (const auto& [kind, arg] : fault_args) {
    const auto kv = parse_kv(arg);
    const std::string link = want_str(kv, "link", "swL->swR");
    if (kind == "flap") {
      plan.flap(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")), link);
    } else if (kind == "brownout") {
      plan.brownout(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")),
                    link, want_num(kv, "factor"));
    } else if (kind == "straggler") {
      plan.straggler(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")),
                     job_id(kv), want_num(kv, "slowdown", 1.5));
    } else if (kind == "pause") {
      plan.pause(at(kv), Duration::from_millis_f(want_num(kv, "for_ms")),
                 job_id(kv));
    } else if (kind == "depart") {
      plan.depart(at(kv), job_id(kv));
    } else if (kind == "arrive") {
      plan.arrive(at(kv), job_id(kv));
    }
  }
  return plan;
}

int cmd_faults(
    const std::vector<std::string>& job_args,
    const std::vector<std::pair<std::string, std::string>>& fault_args,
    const std::map<std::string, std::string>& opts) {
  if (job_args.empty()) usage("faults needs at least one --job");
  if (fault_args.empty()) usage("faults needs at least one fault flag");
  const std::vector<ScenarioJob> jobs = parse_scenario_jobs(job_args);
  ScenarioConfig cfg;
  apply_scenario_opts(cfg, opts);
  cfg.faults = parse_fault_plan(fault_args, jobs.size(), opts);
  const std::string spec = canonical_run_spec("faults", job_args, fault_args,
                                              opts);
  TraceSetup trace;
  CheckpointSetup ckpt;
  cfg.checkpoint = ckpt.configure(spec, opts, trace);
  cfg.trace = trace.configure(opts);
  if (cfg.checkpoint != nullptr && trace.has_file()) {
    cfg.checkpoint->set_trace_bytes_fn(
        [&trace] { return trace.logical_trace_bytes(); });
  }

  const auto result = run_dumbbell_scenario(jobs, cfg);
  ckpt.check_verified();

  std::printf("policy %s, %zu jobs, %.0f s simulated, %zu fault events:\n\n",
              to_string(cfg.policy), jobs.size(), cfg.duration.to_seconds(),
              cfg.faults.events.size());
  TextTable table({"job", "iterations", "mean ms", "median ms", "p95 ms"});
  for (const auto& j : result.jobs) {
    table.add_row({j.name, std::to_string(j.iterations),
                   post_warmup_ms(j, j.mean_ms), post_warmup_ms(j, j.median_ms),
                   post_warmup_ms(j, j.p95_ms)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("applied events:\n");
  for (const FaultEvent& ev : result.faults_applied) {
    std::printf("  %8.1f ms  %-13s %s\n",
                (ev.at - TimePoint::origin()).to_millis(), to_string(ev.kind),
                ev.is_link_event()
                    ? ev.link_name.c_str()
                    : jobs[static_cast<std::size_t>(ev.job.value)]
                          .name.c_str());
  }
  trace.finish();
  const int health_rc = trace.health_exit_code(opts);
  if (result.recovery) {
    std::printf("\n%s", result.recovery->summary().c_str());
    if (!result.recovery->all_converged()) return 1;
  }
  return health_rc;
}

int cmd_sweep(const std::vector<std::string>& job_args,
              const std::map<std::string, std::string>& opts) {
  if (job_args.empty()) usage("sweep needs at least one --job");
  if (!opts.contains("param")) usage("sweep needs --param");
  if (!opts.contains("values")) usage("sweep needs --values");
  const std::string param = opts.at("param");
  if (param != "timer_us" && param != "rai_mbps" && param != "start_ms" &&
      param != "bottleneck_gbps") {
    usage(("unknown sweep param: " + param).c_str());
  }
  std::vector<double> values;
  {
    std::stringstream ss(opts.at("values"));
    std::string item;
    while (std::getline(ss, item, ',')) values.push_back(std::atof(item.c_str()));
  }
  if (values.empty()) usage("sweep needs at least one value");

  const std::vector<ScenarioJob> base_jobs = parse_scenario_jobs(job_args);
  ScenarioConfig base_cfg;
  apply_scenario_opts(base_cfg, opts);

  SweepOptions sw;
  if (opts.contains("threads")) {
    sw.threads = static_cast<unsigned>(std::atoi(opts.at("threads").c_str()));
  }
  SweepRunner pool(sw);
  // Every grid point simulates from its own copies of the job list and
  // config; results come back in grid order regardless of thread timing.
  const auto results = pool.run(values, [&](double v, std::size_t) {
    std::vector<ScenarioJob> jobs = base_jobs;
    ScenarioConfig cfg = base_cfg;
    if (param == "timer_us") {
      jobs[0].cc_timer = Duration::from_micros_f(v);
    } else if (param == "rai_mbps") {
      jobs[0].cc_rai = Rate::mbps(v);
    } else if (param == "start_ms") {
      jobs[0].start_offset = Duration::from_millis_f(v);
    } else {  // bottleneck_gbps
      cfg.bottleneck = Rate::gbps(v);
    }
    return run_dumbbell_scenario(jobs, cfg);
  });

  std::printf("sweep of %s over %zu values (%s, %.0f s simulated, %u "
              "threads):\n\n",
              param.c_str(), values.size(), to_string(base_cfg.policy),
              base_cfg.duration.to_seconds(), pool.thread_count());
  std::vector<std::string> headers = {param};
  for (const auto& j : base_jobs) headers.push_back(j.name + " mean ms");
  TextTable table(headers);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::vector<std::string> row = {TextTable::num(values[i], 1)};
    for (const auto& j : results[i].jobs) {
      row.push_back(post_warmup_ms(j, j.mean_ms));
    }
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Everything an orchestrator run is built from, reconstructible from the
/// option map alone — cmd_cluster parses it from the command line, branch
/// replays parse it back out of a snapshot's stored spec.
struct ClusterSetup {
  ArrivalConfig acfg;
  ArrivalSchedule schedule;
  Topology topo;
  OrchestratorConfig cfg;
  int tors;
  int hosts;
  int spines;
};

ClusterSetup make_cluster_setup(
    const std::vector<std::pair<std::string, std::string>>& fault_args,
    const std::map<std::string, std::string>& opts) {
  const auto num_opt = [&](const char* key, double fallback) {
    const auto it = opts.find(key);
    return it == opts.end() ? fallback : std::atof(it->second.c_str());
  };

  ArrivalConfig acfg;
  acfg.seed = static_cast<std::uint64_t>(num_opt("seed", 1));
  acfg.rate_per_min = num_opt("rate", 12);
  acfg.horizon = Duration::from_seconds_f(num_opt("seconds", 60));
  acfg.mean_service_extra = Duration::from_seconds_f(num_opt("service-s", 12));
  acfg.min_workers = static_cast<int>(num_opt("workers-min", 2));
  acfg.max_workers = static_cast<int>(num_opt("workers-max", 4));
  ArrivalSchedule schedule = generate_arrivals(acfg);

  const int tors = static_cast<int>(num_opt("tors", 4));
  const int hosts = static_cast<int>(num_opt("hosts", 4));
  const int spines = static_cast<int>(num_opt("spines", 2));
  // --fabric-gbps sets the ToR->spine uplink rate; dropping it below the
  // 50 Gb/s host rate oversubscribes the fabric and makes spanning jobs
  // contend on MULTIPLE links of one route (the multi-bottleneck regime).
  Topology topo = Topology::leaf_spine(tors, hosts, spines, Rate::gbps(50),
                                       Rate::gbps(num_opt("fabric-gbps", 50)));

  OrchestratorConfig cfg;
  if (opts.contains("policy")) {
    cfg.policy = parse_policy_kind(opts.at("policy"));
  }
  if (opts.contains("cc-policy-table")) {
    cfg.transports.table.table =
        CcPolicyTable::load(opts.at("cc-policy-table"));
  }
  cfg.horizon = acfg.horizon;
  cfg.flow_schedule = num_opt("flow-schedule", 1) != 0;
  const std::string circle =
      opts.contains("circle") ? opts.at("circle") : "graph";
  if (circle == "single") {
    cfg.circle = OrchestratorConfig::CircleMode::kSingleCircle;
  } else if (circle == "graph") {
    cfg.circle = OrchestratorConfig::CircleMode::kGraph;
  } else {
    usage(("unknown circle mode: " + circle +
           " (expected single or graph)").c_str());
  }
  const std::string adm = opts.contains("admission") ? opts.at("admission")
                                                     : "compat";
  if (adm == "locality") {
    cfg.admission.policy = AdmissionPolicyKind::kLocalityOnly;
  } else if (adm == "compat") {
    cfg.admission.policy = AdmissionPolicyKind::kCompatibilityAware;
  } else {
    usage(("unknown admission policy: " + adm +
           " (expected locality or compat)").c_str());
  }
  cfg.admission.queue_capacity = static_cast<int>(num_opt("queue-cap", 16));
  cfg.admission.queue_timeout =
      Duration::from_seconds_f(num_opt("queue-timeout-s", 30));

  cfg.faults.seed = acfg.seed;
  for (const auto& [kind, arg] : fault_args) {
    const auto kv = parse_kv(arg);
    const auto at =
        TimePoint::origin() + Duration::from_millis_f(want_num(kv, "at_ms"));
    const std::string link = want_str(kv, "link", "tor0->spine0");
    if (kind == "flap") {
      cfg.faults.flap(at, Duration::from_millis_f(want_num(kv, "for_ms")),
                      link);
    } else if (kind == "brownout") {
      cfg.faults.brownout(at, Duration::from_millis_f(want_num(kv, "for_ms")),
                          link, want_num(kv, "factor"));
    } else {
      usage(("cluster supports only link faults, not --" + kind).c_str());
    }
  }

  return ClusterSetup{std::move(acfg), std::move(schedule), std::move(topo),
                      std::move(cfg),  tors,               hosts,
                      spines};
}

int cmd_cluster(
    const std::vector<std::pair<std::string, std::string>>& fault_args,
    const std::map<std::string, std::string>& opts) {
  ClusterSetup cs = make_cluster_setup(fault_args, opts);
  const std::string spec = canonical_run_spec("cluster", {}, fault_args, opts);
  TraceSetup trace;
  CheckpointSetup ckpt;
  cs.cfg.checkpoint = ckpt.configure(spec, opts, trace);
  cs.cfg.trace = trace.configure(opts);
  if (cs.cfg.checkpoint != nullptr && trace.has_file()) {
    cs.cfg.checkpoint->set_trace_bytes_fn(
        [&trace] { return trace.logical_trace_bytes(); });
  }

  Orchestrator orch(cs.topo, cs.schedule, cs.cfg);
  const ClusterRunReport report = orch.run();
  ckpt.check_verified();

  std::printf(
      "online cluster: %dx%d hosts, %d spines | %s admission, %s policy | "
      "seed %llu, %.1f jobs/min, %.0f s horizon\n",
      cs.tors, cs.hosts, cs.spines, to_string(cs.cfg.admission.policy),
      to_string(cs.cfg.policy),
      static_cast<unsigned long long>(cs.acfg.seed), cs.acfg.rate_per_min,
      cs.cfg.horizon.to_seconds());
  std::printf("%s", report.summary().c_str());
  trace.finish();
  return trace.health_exit_code(opts);
}

// --- What-if branching -------------------------------------------------------

/// One fork of the recorded timeline.
struct BranchDef {
  std::string name;       ///< display name, e.g. "admission=locality"
  std::string dimension;  ///< "baseline" | "admission" | "transport" | "faults"
  std::string value;      ///< parsed variation value (policy name, ...)
  FaultPlan extra;        ///< dimension == "faults": post-cursor link events
};

struct BranchOutcome {
  std::string jsonl;    ///< the branch's full in-memory trace
  std::string summary;  ///< one-line result stats
};

/// Replicates the recorded run's trace structure in memory.  The structure
/// matters beyond diffing: a sampling sink schedules simulator events, so
/// the replay only byte-matches the snapshot if the sampler cadence (or its
/// absence) is exactly what the recording run had.  An un-traced recording
/// gets a cadence-free JSONL sink, which adds no simulator events but still
/// yields a diffable stream.
struct BranchTrace {
  explicit BranchTrace(const RunSpec& rs) {
    const Duration cadence = Duration::from_millis_f(
        rs.opts.contains("trace-cadence-ms")
            ? std::atof(rs.opts.at("trace-cadence-ms").c_str())
            : 5.0);
    JsonlSinkOptions jopts;
    if (rs.traced) jopts.sample_cadence = cadence;
    sink = std::make_unique<JsonlSink>(oss, jopts);
    if (rs.health) {
      AnalyticsConfig acfg;
      acfg.sample_cadence = cadence;
      engine = std::make_unique<AnalyticsEngine>(acfg);
      engine->set_output(sink.get());
      bus.add_sink(*engine);
    } else {
      bus.add_sink(*sink);
    }
  }

  std::uint64_t bytes() { return static_cast<std::uint64_t>(oss.tellp()); }

  std::ostringstream oss;
  TraceBus bus;
  std::unique_ptr<JsonlSink> sink;
  std::unique_ptr<AnalyticsEngine> engine;
};

Duration checkpoint_cadence_of(const RunSpec& rs) {
  if (!rs.opts.contains("checkpoint-every")) {
    throw SnapshotError(
        "snapshot spec carries no --checkpoint-every; cannot replay");
  }
  return Duration::from_millis_f(
      std::atof(rs.opts.at("checkpoint-every").c_str()));
}

CheckpointCoordinator make_branch_coordinator(const RunSpec& rs,
                                              const Snapshot& target) {
  CheckpointCoordinator::Options co;
  co.every = checkpoint_cadence_of(rs);
  co.run_spec = target.get("spec");
  co.mode = CheckpointCoordinator::Mode::kReplayOnly;
  co.target = target;
  co.target_seq = CheckpointCoordinator::read_cursor(target).seq;
  return CheckpointCoordinator(std::move(co));
}

void emit_branch_marker(TraceBus& bus, TimePoint now, std::size_t index,
                        const BranchDef& b) {
  TraceEvent ev;
  ev.time = now;
  ev.kind = TraceEventKind::kCkptBranch;
  ev.value = static_cast<double>(index);
  ev.detail = b.dimension.c_str();
  bus.emit(ev);
}

BranchOutcome run_scenario_branch(const RunSpec& rs, const Snapshot& target,
                                  const BranchDef& b, std::size_t index) {
  const std::vector<ScenarioJob> jobs = parse_scenario_jobs(rs.job_args);
  ScenarioConfig cfg;
  apply_scenario_opts(cfg, rs.opts);
  cfg.faults = parse_fault_plan(rs.fault_args, jobs.size(), rs.opts);

  BranchTrace trace(rs);
  CheckpointCoordinator ck = make_branch_coordinator(rs, target);
  if (rs.traced) {
    ck.set_trace_bytes_fn([&trace] { return trace.bytes(); });
  }
  std::unique_ptr<FaultInjector> extra;  // keeps cursor-applied faults alive
  cfg.checkpoint = &ck;
  cfg.trace = &trace.bus;
  cfg.on_cursor = [&](Simulator& sim, Network& net) {
    emit_branch_marker(trace.bus, sim.now(), index, b);
    if (b.dimension == "transport") {
      net.replace_policy(make_policy(parse_policy_kind(b.value), cfg.transports));
    } else if (b.dimension == "faults") {
      extra = std::make_unique<FaultInjector>(sim, net, b.extra);
      extra->arm();
    }
  };

  const ScenarioResult result = run_dumbbell_scenario(jobs, cfg);
  if (!ck.verified()) {
    throw ResumeDivergence("branch '" + b.name +
                           "' never reached the snapshot's cursor");
  }
  trace.bus.flush();

  BranchOutcome out;
  out.jsonl = trace.oss.str();
  for (const auto& j : result.jobs) {
    if (!out.summary.empty()) out.summary += " | ";
    out.summary += j.name + ": " + std::to_string(j.iterations) +
                   " iters, mean " + post_warmup_ms(j, j.mean_ms);
    if (!j.cdf.empty()) out.summary += " ms";
  }
  return out;
}

BranchOutcome run_cluster_branch(const RunSpec& rs, const Snapshot& target,
                                 const BranchDef& b, std::size_t index) {
  ClusterSetup cs = make_cluster_setup(rs.fault_args, rs.opts);

  BranchTrace trace(rs);
  CheckpointCoordinator ck = make_branch_coordinator(rs, target);
  if (rs.traced) {
    ck.set_trace_bytes_fn([&trace] { return trace.bytes(); });
  }
  std::unique_ptr<FaultInjector> extra;
  cs.cfg.checkpoint = &ck;
  cs.cfg.trace = &trace.bus;
  cs.cfg.on_cursor = [&](OrchestratorCursorContext& ctx) {
    emit_branch_marker(trace.bus, ctx.sim.now(), index, b);
    if (b.dimension == "admission") {
      ctx.admission.set_policy(b.value == "locality"
                                   ? AdmissionPolicyKind::kLocalityOnly
                                   : AdmissionPolicyKind::kCompatibilityAware);
      ctx.drain_queue();
    } else if (b.dimension == "transport") {
      ctx.net.replace_policy(
          make_policy(parse_policy_kind(b.value), cs.cfg.transports));
    } else if (b.dimension == "faults") {
      extra = std::make_unique<FaultInjector>(ctx.sim, ctx.net, b.extra);
      extra->arm();
    }
  };

  Orchestrator orch(cs.topo, cs.schedule, cs.cfg);
  const ClusterRunReport report = orch.run();
  if (!ck.verified()) {
    throw ResumeDivergence("branch '" + b.name +
                           "' never reached the snapshot's cursor");
  }
  trace.bus.flush();

  BranchOutcome out;
  out.jsonl = trace.oss.str();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu admitted, %zu rejected, %zu finished | mean slowdown "
                "%.3f, worst %.3f | mean queue %.1f ms",
                report.admitted, report.rejected, report.finished,
                report.mean_slowdown(), report.max_slowdown(),
                report.mean_queue_delay_ms());
  out.summary = buf;
  return out;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// First line where a branch's stream diverges from the baseline's.  The
/// ckpt.branch marker line every fork necessarily differs on is skipped —
/// the interesting divergence is the first *behavioral* one.
struct Divergence {
  bool found = false;
  std::size_t line = 0;
  std::string base;
  std::string branch;
};

Divergence first_divergence(const std::vector<std::string>& base,
                            const std::vector<std::string>& other) {
  const std::size_t n = std::min(base.size(), other.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (base[i] == other[i]) continue;
    if (base[i].find("ckpt.branch") != std::string::npos &&
        other[i].find("ckpt.branch") != std::string::npos) {
      continue;
    }
    return {true, i + 1, base[i], other[i]};
  }
  if (base.size() != other.size()) {
    return {true, n + 1,
            n < base.size() ? base[n] : std::string("<end of stream>"),
            n < other.size() ? other[n] : std::string("<end of stream>")};
  }
  return {};
}

std::string truncated(const std::string& s, std::size_t max = 110) {
  return s.size() <= max ? s : s.substr(0, max) + "...";
}

int cmd_branch(
    const std::vector<std::string>& vary_args,
    const std::vector<std::pair<std::string, std::string>>& extra_fault_args,
    const std::map<std::string, std::string>& opts) {
  if (!opts.contains("from")) usage("branch needs --from SNAPSHOT");
  const Snapshot target = Snapshot::load(opts.at("from"));
  const RunSpec rs = parse_run_spec(target.get("spec"));
  const auto cursor = CheckpointCoordinator::read_cursor(target);
  const bool cluster = rs.cmd == "cluster";
  if (!cluster && rs.cmd != "scenario" && rs.cmd != "faults") {
    throw SnapshotError("snapshot records unbranchable command '" + rs.cmd +
                        "'");
  }

  // The unmodified continuation runs first: it is the diff baseline.
  std::vector<BranchDef> branches;
  branches.push_back(BranchDef{"baseline", "baseline", "", {}});
  for (const std::string& v : vary_args) {
    const auto eq = v.find('=');
    if (eq == std::string::npos) {
      usage(("bad --vary (expected dimension=value): " + v).c_str());
    }
    const std::string dim = v.substr(0, eq);
    const std::string val = v.substr(eq + 1);
    if (dim == "admission") {
      if (!cluster) usage("--vary admission= only applies to cluster snapshots");
      if (val != "locality" && val != "compat") {
        usage(("unknown admission policy: " + val +
               " (expected locality or compat)").c_str());
      }
    } else if (dim == "transport") {
      parse_policy_kind(val);  // throws on junk before any replay starts
    } else {
      usage(("unknown --vary dimension: " + dim +
             " (expected admission or transport)").c_str());
    }
    branches.push_back(BranchDef{v, dim, val, {}});
  }
  if (!extra_fault_args.empty()) {
    // All --with-* events fold into one extra fault plan, armed at the
    // cursor; they must land on the continuation, not the shared history.
    FaultPlan plan;
    for (const auto& [kind, arg] : extra_fault_args) {
      const auto kv = parse_kv(arg);
      const double at_ms = want_num(kv, "at_ms");
      if (at_ms * 1e6 <= static_cast<double>(cursor.time_ns)) {
        usage(("--with-" + kind + " at_ms=" + std::to_string(at_ms) +
               " is before the snapshot cursor (" +
               std::to_string(static_cast<double>(cursor.time_ns) / 1e6) +
               " ms); what-if faults must hit the continuation")
                  .c_str());
      }
      const auto at =
          TimePoint::origin() + Duration::from_millis_f(at_ms);
      const std::string link =
          want_str(kv, "link", cluster ? "tor0->spine0" : "swL->swR");
      if (kind == "flap") {
        plan.flap(at, Duration::from_millis_f(want_num(kv, "for_ms")), link);
      } else {
        plan.brownout(at, Duration::from_millis_f(want_num(kv, "for_ms")),
                      link, want_num(kv, "factor"));
      }
    }
    branches.push_back(BranchDef{"faults", "faults", "", std::move(plan)});
  }
  if (branches.size() == 1) {
    usage("branch needs at least one --vary or --with-* variation");
  }

  SweepOptions sw;
  if (opts.contains("threads")) {
    sw.threads = static_cast<unsigned>(std::atoi(opts.at("threads").c_str()));
  }
  SweepRunner pool(sw);
  const std::vector<BranchOutcome> outcomes =
      pool.run(branches, [&](const BranchDef& b, std::size_t i) {
        return cluster ? run_cluster_branch(rs, target, b, i)
                       : run_scenario_branch(rs, target, b, i);
      });

  std::printf(
      "branched %zu what-if continuations of '%s' from %s\n"
      "  cursor: checkpoint %llu at %.1f ms, %llu events replayed and "
      "verified byte-identical per branch\n\n",
      branches.size(), rs.cmd.c_str(), opts.at("from").c_str(),
      static_cast<unsigned long long>(cursor.seq),
      static_cast<double>(cursor.time_ns) / 1e6,
      static_cast<unsigned long long>(cursor.events_executed));

  const std::vector<std::string> base_lines = split_lines(outcomes[0].jsonl);
  for (std::size_t i = 0; i < branches.size(); ++i) {
    std::printf("[%zu] %-24s %s\n", i, branches[i].name.c_str(),
                outcomes[i].summary.c_str());
    if (i == 0) continue;
    const Divergence d =
        first_divergence(base_lines, split_lines(outcomes[i].jsonl));
    if (!d.found) {
      std::printf("     no divergence from baseline (%zu identical trace "
                  "lines)\n",
                  base_lines.size());
    } else {
      std::printf("     first divergence from baseline at trace line %zu:\n",
                  d.line);
      std::printf("       baseline: %s\n", truncated(d.base).c_str());
      std::printf("       branch:   %s\n", truncated(d.branch).c_str());
    }
  }
  return 0;
}

int cmd_analyze(const std::vector<std::string>& positional,
                const std::map<std::string, std::string>& opts) {
  if (positional.size() != 1) {
    usage("analyze needs exactly one trace file (JSONL format)");
  }
  const std::string& file = positional[0];
  std::ifstream in(file);
  if (!in) usage(("cannot open trace file: " + file).c_str());

  // One code path, online and offline: the replay folds every event through
  // the same AnalyticsEngine a live --health-report run subscribes to the
  // bus, so analyzing a run's JSONL trace reproduces that run's report.
  AnalyticsEngine engine;
  TraceReplayStats stats;
  std::string error;
  if (!replay_trace_jsonl(in, engine, stats, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", file.c_str(), error.c_str());
    return 2;
  }
  engine.flush();
  std::fprintf(stderr, "analyzed %llu events from %s\n",
               static_cast<unsigned long long>(stats.events), file.c_str());
  return emit_health_report(engine, opts);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::vector<std::string> job_args;
  std::vector<std::pair<std::string, std::string>> fault_args;
  std::vector<std::string> vary_args;
  std::vector<std::pair<std::string, std::string>> with_fault_args;
  std::vector<std::string> positional;
  std::map<std::string, std::string> opts;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      // Only analyze takes a positional operand (the trace file).
      if (cmd != "analyze") usage(("unexpected argument: " + a).c_str());
      positional.push_back(a);
      continue;
    }
    a = a.substr(2);
    if (i + 1 >= argc) usage(("missing value for --" + a).c_str());
    const std::string value = argv[++i];
    if (a == "job") {
      job_args.push_back(value);
    } else if (a == "flap" || a == "brownout" || a == "straggler" ||
               a == "pause" || a == "depart" || a == "arrive") {
      // Fault flags repeat; order within the command line is preserved.
      fault_args.emplace_back(a, value);
    } else if (a == "vary") {
      vary_args.push_back(value);
    } else if (a == "with-flap" || a == "with-brownout") {
      with_fault_args.emplace_back(a.substr(5), value);
    } else {
      opts[a] = value;
    }
  }
  try {
    if (cmd == "zoo") return cmd_zoo();
    if (cmd == "transports") return cmd_transports();
    if (cmd == "profile") return cmd_profile(opts);
    if (cmd == "solve") return cmd_solve(job_args, opts);
    if (cmd == "scenario") return cmd_scenario(job_args, opts);
    if (cmd == "sweep") return cmd_sweep(job_args, opts);
    if (cmd == "faults") return cmd_faults(job_args, fault_args, opts);
    if (cmd == "cluster") return cmd_cluster(fault_args, opts);
    if (cmd == "analyze") return cmd_analyze(positional, opts);
    if (cmd == "branch") return cmd_branch(vary_args, with_fault_args, opts);
  } catch (const ResumeDivergence& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 4;
  } catch (const SimulatorWedged& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage(("unknown command: " + cmd).c_str());
}
