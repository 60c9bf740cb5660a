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
// Every flag is one row of kOptions: the subcommands that accept it, the
// domain of its value, its default, its part in a snapshot's run spec and
// its help line.  One parser reads argv against that table, so an unknown,
// repeated or out-of-domain flag is a usage error naming it (exit 2), and
// usage() lists exactly the flags the parser accepts.
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
#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
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

// --- The option table --------------------------------------------------------

/// The subcommands; an option's `commands` is a mask of their bits, bit i
/// standing for kCommands[i].
constexpr const char* kCommands[] = {"zoo",    "transports", "profile",
                                     "solve",  "scenario",   "faults",
                                     "sweep",  "cluster",    "analyze",
                                     "branch"};
enum : unsigned {
  kProfile = 1u << 2,
  kSolve = 1u << 3,
  kScenario = 1u << 4,
  kFaults = 1u << 5,
  kSweep = 1u << 6,
  kCluster = 1u << 7,
  kAnalyze = 1u << 8,
  kBranch = 1u << 9,
  kDumbbell = kScenario | kFaults | kSweep,
  kLive = kScenario | kFaults | kCluster,  ///< traced, checkpointed runs
  kHealth = kLive | kAnalyze,
};

/// Upper bound of --threads: a count past it is a typo, and each worker is
/// an OS thread started up front.
constexpr long long kMaxThreads = 256;

/// What an option's value must be.  Integers are plain decimal digits, so
/// every accepted value means what it meant to the atoi/atof it replaced.
enum Domain {
  kPositiveInt,  ///< 1 .. INT_MAX
  kCount,        ///< 0 .. INT_MAX
  kSeed,         ///< 0 .. 2^53, the integers a double holds exactly
  kThreads,      ///< 0 .. kMaxThreads; 0 = one per hardware thread
  kPositive,     ///< a finite number > 0
  kNonNegative,  ///< a finite number >= 0
  kNumbers,      ///< comma-separated finite numbers
  kChoice,       ///< one of the '|'-separated words of the option's `arg`
  kPolicy,       ///< a registered transport name
  kText,         ///< any non-empty text: a path, a model, a key=value list
};

/// How an option enters the run spec a snapshot is stamped with.  The last
/// three repeat, keeping their command-line order.
enum Spec {
  kValue,     ///< opt.NAME=VALUE
  kPresence,  ///< opt.NAME=1: an output path a resumed run may change
  kOmit,      ///< left out: paths, exit-code gates, non-spec commands
  kJob,       ///< job=VALUE
  kFault,     ///< fault.NAME=VALUE: one line of the fault script
  kList,      ///< left out (--vary)
};

struct Option {
  const char* name;
  unsigned commands;     ///< the subcommands that accept it
  Domain domain;
  const char* arg;       ///< usage() placeholder; kChoice: the choices
  const char* fallback;  ///< default value, or nullptr
  Spec spec;
  const char* help;
};

constexpr Option kOptions[] = {
    {"job", kSolve | kDumbbell, kText, "K=V,...", nullptr, kJob,
     "one job (job keys below)"},
    {"flap", kFaults | kCluster, kText, "K=V,...", nullptr, kFault,
     "take a link down (fault keys below)"},
    {"brownout", kFaults | kCluster, kText, "K=V,...", nullptr, kFault,
     "scale a link's capacity"},
    {"straggler", kFaults, kText, "K=V,...", nullptr, kFault,
     "slow a job down"},
    {"pause", kFaults, kText, "K=V,...", nullptr, kFault, "pause a job"},
    {"depart", kFaults, kText, "K=V,...", nullptr, kFault, "end a job"},
    {"arrive", kFaults, kText, "K=V,...", nullptr, kFault, "start a job late"},
    {"model", kProfile, kText, "M", nullptr, kOmit, "model to profile"},
    {"batch", kProfile, kPositiveInt, "B", nullptr, kOmit, "batch size"},
    {"iterations", kProfile, kPositiveInt, "N", "30", kOmit,
     "iterations, 5 of them warmup"},
    {"sectors", kSolve, kPositiveInt, "N", nullptr, kOmit, "circle resolution"},
    {"capacity-gbps", kSolve, kPositive, "G", nullptr, kOmit,
     "solve for bandwidth on a G Gb/s link"},
    {"policy", kProfile | kDumbbell | kCluster, kPolicy, "P", "dcqcn", kValue,
     "transport (policies below)"},
    {"cc-policy-table", kDumbbell | kCluster, kText, "FILE", nullptr, kValue,
     "rule table of --policy table"},
    {"seconds", kDumbbell, kPositiveInt, "S", "20", kValue, "run length"},
    {"seconds", kCluster, kPositive, "S", "60", kValue, "arrival horizon"},
    {"flow-schedule", kDumbbell, kChoice, "0|1", "0", kValue,
     "gate jobs with a schedule solved at start"},
    {"flow-schedule", kCluster, kChoice, "0|1", "1", kValue,
     "gate jobs with incrementally solved schedules"},
    {"seed", kFaults | kCluster, kSeed, "N", "1", kValue,
     "seed of arrivals and reroute hashing"},
    {"param", kSweep, kChoice, "timer_us|rai_mbps|start_ms|bottleneck_gbps",
     nullptr, kOmit, "swept parameter"},
    {"values", kSweep, kNumbers, "V1,V2,...", nullptr, kOmit, "its grid"},
    {"threads", kSweep | kBranch, kThreads, "N", "0", kOmit,
     "workers, 0 = one per hardware thread"},
    {"rate", kCluster, kPositive, "JOBS_PER_MIN", "12", kValue,
     "Poisson arrival rate"},
    {"service-s", kCluster, kNonNegative, "S", "12", kValue,
     "mean service time beyond the minimum"},
    {"workers-min", kCluster, kPositiveInt, "N", "2", kValue,
     "fewest workers of a job"},
    {"workers-max", kCluster, kPositiveInt, "N", "4", kValue,
     "most workers of a job"},
    {"tors", kCluster, kPositiveInt, "N", "4", kValue, "ToR switches"},
    {"hosts", kCluster, kPositiveInt, "N", "4", kValue, "hosts per ToR"},
    {"spines", kCluster, kPositiveInt, "N", "2", kValue, "spines"},
    {"fabric-gbps", kCluster, kPositive, "G", "50", kValue,
     "ToR-spine rate; hosts run at 50"},
    {"admission", kCluster, kChoice, "locality|compat", "compat", kValue,
     "admission policy"},
    {"circle", kCluster, kChoice, "single|graph", "graph", kValue,
     "one joint circle, or one per link"},
    {"queue-cap", kCluster, kCount, "N", "16", kValue,
     "admission queue capacity"},
    {"queue-timeout-s", kCluster, kNonNegative, "S", "30", kValue,
     "longest wait in that queue"},
    {"trace", kLive, kText, "FILE", nullptr, kPresence,
     "write a trace, then print run metrics"},
    {"trace-format", kLive, kChoice, "chrome|jsonl", "chrome", kValue,
     "trace format"},
    {"trace-cadence-ms", kLive, kNonNegative, "MS", "5", kValue,
     "link sampling period; 0 = none"},
    {"trace-async", kLive, kChoice, "block|drop", nullptr, kValue,
     "deliver from a consumer thread"},
    {"health-report", kHealth, kText, "FILE|-", "-", kOmit,
     "write the run-health report"},
    {"slo-min-fairness", kHealth, kNonNegative, "F", nullptr, kOmit,
     "fail unless every window's Jain >= F"},
    {"slo-max-slowdown", kHealth, kNonNegative, "F", nullptr, kOmit,
     "fail when mean slowdown > F"},
    {"slo-max-p99-ms", kHealth, kNonNegative, "MS", nullptr, kOmit,
     "fail when a job's p99 iteration > MS"},
    {"slo-max-anomalies", kHealth, kCount, "N", nullptr, kOmit,
     "fail when more than N anomalies fire"},
    {"slo-require-anomaly", kHealth, kChoice, "0|1", nullptr, kOmit,
     "fail unless an anomaly fired"},
    {"checkpoint-every", kLive, kPositive, "MS", nullptr, kValue,
     "snapshot every MS of simulated time"},
    {"checkpoint-dir", kLive, kText, "DIR", "checkpoints", kOmit,
     "snapshot directory"},
    {"resume", kLive, kText, "FILE", nullptr, kOmit, "resume a killed run"},
    {"from", kBranch, kText, "FILE", nullptr, kOmit, "snapshot to fork"},
    {"vary", kBranch, kText, "DIM=V", nullptr, kList,
     "one branch (variations below)"},
    {"with-flap", kBranch, kText, "K=V,...", nullptr, kFault,
     "a flap in the faults branch"},
    {"with-brownout", kBranch, kText, "K=V,...", nullptr, kFault,
     "a brownout in the faults branch"},
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> items;
  std::stringstream ss(s);
  for (std::string item; std::getline(ss, item, sep);) items.push_back(item);
  return items;
}

bool integer_in(const std::string& text, long long lo, long long hi) {
  long long v = 0;
  const char* end = text.data() + text.size();
  const auto [last, ec] = std::from_chars(text.data(), end, v);
  return ec == std::errc() && last == end && v >= lo && v <= hi;
}

std::optional<double> finite(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// The row of `name` for the subcommand bit `command`, or nullptr.
const Option* find_option(const std::string& name, unsigned command) {
  for (const Option& o : kOptions) {
    if (name == o.name && (o.commands & command) != 0) return &o;
  }
  return nullptr;
}

/// What a value of `o` must be under the subcommand bit `command`, or ""
/// when `text` is one.
std::string misfit(const Option& o, const std::string& text,
                   unsigned command) {
  const std::optional<double> v = finite(text);
  switch (o.domain) {
    case kPositiveInt:
      return integer_in(text, 1, INT_MAX) ? "" : "a positive integer";
    case kCount:
      return integer_in(text, 0, INT_MAX) ? "" : "a non-negative integer";
    case kSeed:
      return integer_in(text, 0, 1LL << 53) ? "" : "an integer in [0, 2^53]";
    case kThreads:
      return integer_in(text, 0, kMaxThreads)
                 ? ""
                 : "an integer in [0, " + std::to_string(kMaxThreads) + "]";
    case kPositive:
      return v && *v > 0 ? "" : "a positive number";
    case kNonNegative:
      return v && *v >= 0 ? "" : "a non-negative number";
    case kNumbers: {
      const auto items = split(text, ',');
      const bool ok = !items.empty() && std::all_of(
          items.begin(), items.end(),
          [](const std::string& item) { return finite(item).has_value(); });
      return ok ? "" : "comma-separated numbers";
    }
    case kChoice: {
      const auto words = split(o.arg, '|');
      return std::find(words.begin(), words.end(), text) != words.end()
                 ? ""
                 : o.arg;
    }
    case kPolicy:
      // The table transport runs the rules of --cc-policy-table.
      if (text == "table" &&
          find_option("cc-policy-table", command) == nullptr) {
        return "a transport other than table, which needs --cc-policy-table";
      }
      for (const TransportInfo& t : transport_catalogue()) {
        if (text == t.name) return "";
      }
      return "one of " + registered_transport_names();
    case kText:
      return text.empty() ? "a non-empty value" : "";
  }
  return "";
}

/// A command line that kOptions does not accept; main() prints it and
/// exits 2.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// A command line read against kOptions: the text of every flag as given
/// (the run spec records it), typed access to it or to its default, and the
/// run spec itself.
class Options {
 public:
  /// Reads `args`, the arguments after the subcommand `command`; throws
  /// UsageError naming the first flag that the subcommand does not take,
  /// that lacks its value, that repeats without being repeatable, or whose
  /// value is outside its domain (which includes trailing junk).
  Options(std::string command, const std::vector<std::string>& args)
      : cmd(std::move(command)) {
    const auto* it = std::find(std::begin(kCommands), std::end(kCommands), cmd);
    if (it == std::end(kCommands)) throw UsageError("unknown command: " + cmd);
    command_ = 1u << (it - std::begin(kCommands));
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!args[i].starts_with("--")) {
        // Only analyze takes an operand (the trace file).
        if (command_ != kAnalyze) {
          throw UsageError("unexpected argument: " + args[i]);
        }
        positional.push_back(args[i]);
        continue;
      }
      const std::string name = args[i].substr(2);
      const Option* o = find_option(name, command_);
      if (o == nullptr) {
        throw UsageError("unknown option --" + name + " for " + cmd);
      }
      if (i + 1 == args.size() || args[i + 1].starts_with("--")) {
        throw UsageError("missing value for --" + name);
      }
      const std::string& value = args[++i];
      if (const std::string want = misfit(*o, value, command_);
          !want.empty()) {
        throw UsageError(name + "=" + value + ": expected " + want);
      }
      if (o->spec >= kJob) {
        repeated_.emplace_back(o, value);
      } else if (!given_.emplace(name, value).second) {
        throw UsageError("--" + name + " given twice");
      }
    }
  }

  const std::string cmd;
  std::vector<std::string> positional;

  bool has(const std::string& name) const { return given_.contains(name); }

  /// The value given for `name`, else its default.
  std::string text(const std::string& name) const {
    if (const auto it = given_.find(name); it != given_.end()) {
      return it->second;
    }
    const Option* o = find_option(name, command_);
    if (o == nullptr || o->fallback == nullptr) {
      throw std::logic_error("--" + name + " has no default for " + cmd);
    }
    return o->fallback;
  }
  double num(const std::string& name) const {
    return std::strtod(text(name).c_str(), nullptr);
  }
  int count(const std::string& name) const {
    return std::atoi(text(name).c_str());
  }
  bool flag(const std::string& name) const { return text(name) == "1"; }

  /// The (name, value) pairs of the repeatable flags in role `spec`, in
  /// command-line order.
  std::vector<std::pair<std::string, std::string>> list(Spec spec) const {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [o, value] : repeated_) {
      if (o->spec == spec) out.emplace_back(o->name, value);
    }
    return out;
  }

  /// True when the run wants run-health analytics: --health-report or any
  /// --slo-* gate.
  bool health() const {
    return std::any_of(given_.begin(), given_.end(), [](const auto& kv) {
      return kv.first == "health-report" || kv.first.starts_with("slo-");
    });
  }

  /// Canonical textual spec of a run, stored as the "spec" section of every
  /// snapshot: the command, every --job and fault flag in command-line
  /// order, then the other flags by name as their Spec role says.  Output
  /// paths become presence markers so a resumed run may write elsewhere,
  /// and --slo-* values only gate the exit code; everything else —
  /// including --checkpoint-every, whose ticks consume event budget — must
  /// match the recording run exactly.
  std::string run_spec() const {
    std::string s = "ccml-run-spec v1\ncmd=" + cmd + "\n";
    for (const auto& [name, value] : list(kJob)) {
      s += "job=" + value + "\n";
    }
    for (const auto& [name, value] : list(kFault)) {
      s += "fault." + name + "=" + value + "\n";
    }
    for (const auto& [name, value] : given_) {
      const Spec spec = find_option(name, command_)->spec;
      if (spec == kValue) s += "opt." + name + "=" + value + "\n";
      if (spec == kPresence) s += "opt." + name + "=1\n";
    }
    if (health()) s += "opt.health=1\n";
    return s;
  }

 private:
  unsigned command_ = 0;
  /// Single-valued flags, sorted by name as the run spec lists them.
  std::map<std::string, std::string> given_;
  std::vector<std::pair<const Option*, std::string>> repeated_;
};

/// The full usage: every command, every row of kOptions and the key lists.
void print_usage(std::FILE* out) {
  std::fprintf(out, R"(usage: ccml_sim <command> [options]

commands:
  zoo           list models and calibrated (model,batch) entries
  transports    list transports: family, goodput derating, MLTCP, tunables
  profile       profile one job in isolation
  solve         compatibility of two or more jobs on one link
  scenario      simulate jobs sharing a dumbbell bottleneck
  faults        scenario with a fault script, applied events and recovery
  sweep         one scenario per --values point, fanned across threads
  cluster       online orchestrator: Poisson arrivals on a leaf-spine
                fabric, admission control, incremental gate re-solving
  analyze FILE  replay a JSONL trace through the live run's streaming
                analyzers and emit its run-health report
  branch        fork what-if continuations from a snapshot; each replays the
                history to its cursor, verifies it, applies its variation,
                runs on in memory and is diffed against the baseline

options (accepted by the commands named; given once unless repeatable):
)");
  for (const Option& o : kOptions) {
    std::string where;
    for (std::size_t i = 0; i < std::size(kCommands); ++i) {
      if ((o.commands & (1u << i)) == 0) continue;
      if (!where.empty()) where += ' ';
      where += kCommands[i];
    }
    if (o.fallback != nullptr) where += std::string("; default ") + o.fallback;
    if (o.spec >= kJob) where += "; repeatable";
    const std::string flag = std::string("--") + o.name + " " + o.arg;
    std::fprintf(out, "  %-28s %s [%s]\n", flag.c_str(), o.help,
                 where.c_str());
  }
  std::fprintf(out, R"(
job keys: solve takes period_ms, comm_ms, [demand_gbps], or model+batch;
  the others take model, batch, [workers], name, compute_ms, comm_ms,
  timer_us, rai_mbps, priority, weight, start_ms
fault keys: flap at_ms, for_ms, [link] | brownout at_ms, for_ms, factor,
  [link] | straggler at_ms, for_ms, job, [slowdown] | pause at_ms, for_ms,
  job | depart, arrive at_ms, job.  The default link is the bottleneck cable
  swL->swR (both ways), or tor0->spine0 on cluster runs
sweep params: timer_us, rai_mbps, start_ms (of the first job) or
  bottleneck_gbps (of the fabric)
branch variations: --vary admission=locality|compat (cluster snapshots),
  --vary transport=P, and --with-* faults after the snapshot's cursor
policies: maxmin | wfq | priority | dcqcn | dcqcn-adaptive | timely |
  swift | bbr | table | mltcp-dcqcn | mltcp-timely | mltcp-swift
  (see `ccml_sim transports`; `table` needs --cc-policy-table FILE in the
  ccml-cc-table v1 format)

tracing: chrome traces open in Perfetto (https://ui.perfetto.dev); jsonl
  is one JSON object per line.  --trace-async block is lossless (the
  producer waits on a full ring; bytes match inline delivery); drop never
  stalls the sim and reports overflow in a trailing trace-drops event.
run health: --health-report folds the event stream through the streaming
  analyzers (HDR percentiles, interleaving vs the solver's prediction, Jain
  fairness, anomalies, SLO verdicts); on live runs they chain in front of
  the --trace sink.  Any --slo-* implies --health-report -; a failed check
  exits 1.
checkpointing: each snapshot is self-contained, CRC-guarded and atomically
  renamed into --checkpoint-dir (ckpt_<n>.ccml + latest.ccml).  To resume a
  killed run, re-issue its command line plus --resume FILE; flags may come
  in any order and output paths may differ.  The run replays to the cursor,
  verifies the state byte-for-byte, and stitches the trace, so trace and
  health report are byte-identical to an uninterrupted run's.  Checkpointed
  traces need --trace-format jsonl, and not --trace-async drop.

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
}

/// Exits 2 after a usage error: without `msg` (no command given) the full
/// usage, with it only the error and a pointer to --help, so the error
/// does not scroll away above the usage.
[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg == nullptr) {
    print_usage(stderr);
  } else {
    std::fprintf(stderr,
                 "error: %s\nrun 'ccml_sim --help' for the commands and "
                 "options\n",
                 msg);
  }
  std::exit(2);
}

std::map<std::string, std::string> parse_kv(const std::string& arg) {
  std::map<std::string, std::string> out;
  for (const std::string& item : split(arg, ',')) {
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

/// The command line a snapshot's run spec records, read back by the same
/// option table — enough to replay the run without it (`ccml_sim branch`).
/// Output paths come back as placeholders: a --trace of "1", and a
/// --health-report of "-" for the opt.health marker.
Options parse_run_spec(const std::string& spec) {
  const std::vector<std::string> lines = split(spec, '\n');
  if (lines.empty() || lines[0] != "ccml-run-spec v1") {
    throw SnapshotError("snapshot run spec is not in ccml-run-spec v1 format");
  }
  std::string cmd;
  std::vector<std::string> args;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const auto eq = line.find('=');
    const std::string key = line.substr(0, eq);
    if (eq == std::string::npos) {
      throw SnapshotError("malformed run spec line: " + line);
    } else if (key == "cmd") {
      cmd = line.substr(eq + 1);
    } else if (key == "opt.health") {
      args.insert(args.end(), {"--health-report", "-"});
    } else if (key == "job" || key.starts_with("fault.") ||
               key.starts_with("opt.")) {
      // job=V, fault.NAME=V and opt.NAME=V were --job V and --NAME V.
      args.push_back("--" + key.substr(key.find('.') + 1));
      args.push_back(line.substr(eq + 1));
    } else {
      throw SnapshotError("malformed run spec line: " + line);
    }
  }
  if (cmd != "scenario" && cmd != "faults" && cmd != "cluster") {
    throw SnapshotError("snapshot records unbranchable command '" + cmd + "'");
  }
  try {
    Options opts(cmd, args);
    if (!opts.has("checkpoint-every")) {
      throw SnapshotError(
          "snapshot spec carries no --checkpoint-every; cannot replay");
    }
    return opts;
  } catch (const UsageError& e) {
    throw SnapshotError(std::string("snapshot run spec: ") + e.what());
  }
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

int cmd_profile(const Options& opts) {
  std::map<std::string, std::string> kv;
  if (opts.has("model")) kv["model"] = opts.text("model");
  if (opts.has("batch")) kv["batch"] = opts.text("batch");
  const JobProfile job = job_profile_from(kv);
  ProfilerOptions popts;
  popts.iterations = opts.count("iterations");
  popts.policy = parse_policy_kind(opts.text("policy"));
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

int cmd_solve(const Options& opts) {
  const auto job_args = opts.list(kJob);
  if (job_args.size() < 2) usage("solve needs at least two --job");
  std::vector<CommProfile> profiles;
  for (const auto& [flag, arg] : job_args) {
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
  if (opts.has("sectors")) sopts.sectors = opts.count("sectors");
  if (opts.has("capacity-gbps")) {
    sopts.mode = SolverOptions::Mode::kBandwidth;
    sopts.link_capacity = Rate::gbps(opts.num("capacity-gbps"));
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

/// Renders the run-health report to --health-report's destination ("-" =
/// stdout), gated by the --slo-* flags, and prints the lower-bound warning
/// when the async ring dropped events.  Returns 1 when an SLO check failed,
/// else 0.
int emit_health_report(const AnalyticsEngine& engine, const Options& opts) {
  SloConfig slo;  // an absent gate keeps its "off" value
  const auto gate = [&](const char* name, double off) {
    return opts.has(name) ? opts.num(name) : off;
  };
  slo.min_fairness = gate("slo-min-fairness", slo.min_fairness);
  slo.max_mean_slowdown = gate("slo-max-slowdown", slo.max_mean_slowdown);
  slo.max_p99_iteration_ms = gate("slo-max-p99-ms", slo.max_p99_iteration_ms);
  slo.max_anomalies =
      static_cast<int>(gate("slo-max-anomalies", slo.max_anomalies));
  slo.require_anomaly = gate("slo-require-anomaly", 0) != 0;
  const RunHealthReport report = engine.report(slo);
  const std::string dest = opts.text("health-report");
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

/// A trace bus and its sinks: the file or in-memory sink and, when run-health
/// analytics are on, an AnalyticsEngine in front of it.  The engine is then
/// the bus's only sink and chains to the other, so derived anomaly.* events
/// interleave deterministically with the raw stream.
struct TraceChain {
  TraceBus* connect(std::unique_ptr<TraceSink> out, bool health,
                    Duration cadence) {
    sink = std::move(out);
    if (health) {
      AnalyticsConfig acfg;
      acfg.sample_cadence = cadence;
      engine = std::make_unique<AnalyticsEngine>(acfg);
      engine->set_output(sink.get());
      bus.add_sink(*engine);
    } else {
      bus.add_sink(*sink);
    }
    return &bus;
  }

  TraceBus bus;
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<AnalyticsEngine> engine;
};

/// The trace, run-health and checkpoint plumbing every live run (scenario,
/// faults, cluster) shares.  The constructor hangs the checkpoint
/// coordinator (--checkpoint-every, --resume) and the trace bus (--trace,
/// --health-report, --slo-*) on the run's config; call verified() after the
/// run and finish() after its report.
class LiveRun {
 public:
  template <typename Config>
  LiveRun(const Options& opts, Config& cfg) : opts_(opts) {
    cfg.checkpoint = open_checkpoint();
    cfg.trace = open_trace();
    if (cfg.checkpoint != nullptr && counting_ != nullptr) {
      cfg.checkpoint->set_trace_bytes_fn([this] {
        // Flushed through to the OS first, so a SIGKILL after the snapshot
        // lands can never lose bytes its cursor claims exist.
        stream_->flush();
        return counting_->logical_bytes();
      });
    }
  }
  /// The checkpoint's trace-byte callback holds `this`.
  LiveRun(const LiveRun&) = delete;
  LiveRun& operator=(const LiveRun&) = delete;

  /// A resume whose replay ended before ever reaching the cursor verified
  /// nothing and must not pass silently.
  void verified() const {
    if (resuming_ && !ck_->verified()) {
      throw ResumeDivergence(
          "replay finished without reaching the snapshot's cursor (checkpoint " +
          std::to_string(ck_->options().target_seq) +
          ") — was the recorded run longer than this one?");
    }
    if (resuming_) {
      std::fprintf(stderr, "resume verified byte-identical at the cursor; "
                           "continued to completion\n");
    }
  }

  /// Finalizes the trace file, prints the run metrics and emits the
  /// run-health report; returns 1 when an SLO gate failed, else 0.
  int finish() {
    if (!enabled_) return 0;
    chain_.bus.flush();  // stops the async consumer (full drain) first
    if (!path_.empty()) {
      stream_->flush();
      out_.close();
      std::printf("\ntrace written to %s\n", path_.c_str());
    }
    std::printf("\n%s", chain_.bus.metrics_summary().c_str());
    return chain_.engine ? emit_health_report(*chain_.engine, opts_) : 0;
  }

 private:
  /// On resume, loads and validates the snapshot, refuses a spec recorded
  /// by a different command line, and notes the cursor's trace-byte
  /// position for stitching the trace file.
  CheckpointCoordinator* open_checkpoint() {
    const bool resume = opts_.has("resume");
    if (!opts_.has("checkpoint-every")) {
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
    if (opts_.has("trace") && opts_.text("trace-format") != "jsonl") {
      usage("checkpointing a traced run requires --trace-format jsonl");
    }
    if (opts_.has("trace-async") && opts_.text("trace-async") == "drop") {
      usage("--trace-async drop discards events nondeterministically and "
            "cannot be checkpointed; use block");
    }
    CheckpointCoordinator::Options co;
    co.every = Duration::from_millis_f(opts_.num("checkpoint-every"));
    co.dir = opts_.text("checkpoint-dir");
    co.run_spec = opts_.run_spec();
    if (resume) {
      const std::string from = opts_.text("resume");
      Snapshot target = Snapshot::load(from);
      if (target.get("spec") != co.run_spec) {
        throw SnapshotError(
            "snapshot '" + from +
            "' was recorded by a different run: re-issue the identical "
            "command line plus --resume (output paths may differ; jobs, "
            "faults, seeds, durations and --checkpoint-every may not)");
      }
      const auto cursor = CheckpointCoordinator::read_cursor(target);
      co.mode = CheckpointCoordinator::Mode::kReplayVerify;
      co.target_seq = cursor.seq;
      co.target = std::move(target);
      resume_suppress_ = cursor.trace_bytes;
      resuming_ = true;
      std::fprintf(stderr,
                   "resuming from %s: checkpoint %llu at %.1f ms (%llu events, "
                   "%llu trace bytes); replaying to the cursor...\n",
                   from.c_str(), static_cast<unsigned long long>(cursor.seq),
                   static_cast<double>(cursor.time_ns) / 1e6,
                   static_cast<unsigned long long>(cursor.events_executed),
                   static_cast<unsigned long long>(cursor.trace_bytes));
    }
    ck_ = std::make_unique<CheckpointCoordinator>(std::move(co));
    return ck_.get();
  }

  /// The bus, or nullptr when neither a trace file nor analytics is asked
  /// for.  On resume the existing trace file is cut to the cursor's byte
  /// count and appended to, and the first bytes the replay regenerates are
  /// discarded instead of re-written — the stitched file is byte-identical
  /// to the one an uninterrupted run would have produced.
  TraceBus* open_trace() {
    const bool health = opts_.health();
    if (!opts_.has("trace") && !health) return nullptr;
    const Duration cadence =
        Duration::from_millis_f(opts_.num("trace-cadence-ms"));
    std::unique_ptr<TraceSink> sink;
    if (opts_.has("trace")) {
      path_ = opts_.text("trace");
      std::uint64_t suppress = 0;
      std::error_code ec;
      if (resume_suppress_ > 0 && std::filesystem::exists(path_, ec)) {
        const std::uint64_t size = std::filesystem::file_size(path_);
        if (size < resume_suppress_) {
          throw SnapshotError(
              "trace file '" + path_ + "' has " + std::to_string(size) +
              " bytes but the snapshot's cursor is at byte " +
              std::to_string(resume_suppress_) +
              " — this is not the file the snapshotted run was writing");
        }
        // Drop bytes the killed run wrote past the checkpoint; the replay
        // regenerates them (and everything after) deterministically.
        if (size > resume_suppress_) {
          std::filesystem::resize_file(path_, resume_suppress_);
        }
        out_.open(path_, std::ios::binary | std::ios::app);
        suppress = resume_suppress_;
      } else {
        out_.open(path_, std::ios::binary | std::ios::trunc);
      }
      if (!out_) usage(("cannot open trace file: " + path_).c_str());
      counting_ = std::make_unique<CountingBuf>(out_.rdbuf(), suppress);
      stream_ = std::make_unique<std::ostream>(counting_.get());
      if (opts_.text("trace-format") == "chrome") {
        ChromeTraceSinkOptions copts;
        copts.sample_cadence = cadence;
        sink = std::make_unique<ChromeTraceSink>(*stream_, copts);
      } else {
        JsonlSinkOptions jopts;
        jopts.sample_cadence = cadence;
        sink = std::make_unique<JsonlSink>(*stream_, jopts);
      }
    }
    TraceBus* bus = chain_.connect(std::move(sink), health, cadence);
    if (opts_.has("trace-async")) {
      TraceAsyncOptions aopts;
      if (opts_.text("trace-async") == "drop") {
        aopts.overflow = TraceOverflowPolicy::kDropNewest;
      }
      bus->start_async(aopts);
    }
    enabled_ = true;
    return bus;
  }

  const Options& opts_;
  std::unique_ptr<CheckpointCoordinator> ck_;
  bool resuming_ = false;
  std::uint64_t resume_suppress_ = 0;  ///< trace bytes at the cursor
  bool enabled_ = false;
  std::string path_;
  std::ofstream out_;
  std::unique_ptr<CountingBuf> counting_;
  std::unique_ptr<std::ostream> stream_;
  TraceChain chain_;
};

std::vector<ScenarioJob> parse_scenario_jobs(const Options& opts) {
  std::vector<ScenarioJob> jobs;
  for (const auto& [flag, arg] : opts.list(kJob)) {
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

/// The fault script of `opts` (--flap ... --arrive, or branch's --with-*
/// flags) in command-line order.  A link fault hits `default_link` unless
/// it names another; a job fault must name one of `job_count` jobs.
FaultPlan parse_faults(const Options& opts, const std::string& default_link,
                       std::size_t job_count) {
  FaultPlan plan;
  const auto job_id = [&](const std::map<std::string, std::string>& kv) {
    const int j = static_cast<int>(want_num(kv, "job"));
    if (j < 0 || static_cast<std::size_t>(j) >= job_count) {
      usage(("fault references job " + std::to_string(j) + ", but only " +
             std::to_string(job_count) + " jobs are defined")
                .c_str());
    }
    return JobId{j};
  };
  for (const auto& [flag, arg] : opts.list(kFault)) {
    const std::string kind = flag.starts_with("with-") ? flag.substr(5) : flag;
    const auto kv = parse_kv(arg);
    const auto at =
        TimePoint::origin() + Duration::from_millis_f(want_num(kv, "at_ms"));
    const std::string link = want_str(kv, "link", default_link);
    if (kind == "flap") {
      plan.flap(at, Duration::from_millis_f(want_num(kv, "for_ms")), link);
    } else if (kind == "brownout") {
      plan.brownout(at, Duration::from_millis_f(want_num(kv, "for_ms")), link,
                    want_num(kv, "factor"));
    } else if (kind == "straggler") {
      plan.straggler(at, Duration::from_millis_f(want_num(kv, "for_ms")),
                     job_id(kv), want_num(kv, "slowdown", 1.5));
    } else if (kind == "pause") {
      plan.pause(at, Duration::from_millis_f(want_num(kv, "for_ms")),
                 job_id(kv));
    } else if (kind == "depart") {
      plan.depart(at, job_id(kv));
    } else if (kind == "arrive") {
      plan.arrive(at, job_id(kv));
    }
  }
  return plan;
}

/// The options every engine shares: the transport (--policy,
/// --cc-policy-table) and the fault script with its --seed.
void apply_run_options(RunOptions& run, const Options& opts,
                       const std::string& default_link, std::size_t job_count) {
  run.policy = parse_policy_kind(opts.text("policy"));
  if (opts.has("cc-policy-table")) {
    run.transports.table.table =
        CcPolicyTable::load(opts.text("cc-policy-table"));
  }
  run.faults = parse_faults(opts, default_link, job_count);
  if (opts.has("seed")) {
    run.faults.seed = static_cast<std::uint64_t>(opts.num("seed"));
  }
}

/// The dumbbell run of scenario, faults, sweep and their branch replays.
ScenarioConfig scenario_config(const Options& opts, std::size_t job_count) {
  ScenarioConfig cfg;
  apply_run_options(cfg, opts, "swL->swR", job_count);
  cfg.duration = Duration::seconds(opts.count("seconds"));
  cfg.flow_schedule = opts.flag("flow-schedule");
  return cfg;
}

/// A post-warmup statistic in ms, or "n/a" when every iteration of the job
/// fell inside the warmup and the sample is empty.
std::string post_warmup_ms(const ScenarioJobStats& j, double ms) {
  return j.cdf.empty() ? "n/a" : TextTable::num(ms, 1);
}

/// scenario, and faults: a scenario with a fault script, whose report adds
/// the applied events and the recovery metrics.
int cmd_scenario(const Options& opts) {
  const bool faults = opts.cmd == "faults";
  if (opts.list(kJob).empty()) {
    usage((opts.cmd + " needs at least one --job").c_str());
  }
  if (faults && opts.list(kFault).empty()) {
    usage("faults needs at least one fault flag");
  }
  const std::vector<ScenarioJob> jobs = parse_scenario_jobs(opts);
  ScenarioConfig cfg = scenario_config(opts, jobs.size());
  LiveRun live(opts, cfg);
  const auto result = run_dumbbell_scenario(jobs, cfg);
  live.verified();

  std::printf("policy %s, %zu jobs, %.0f s simulated", to_string(cfg.policy),
              jobs.size(), cfg.duration.to_seconds());
  if (faults) std::printf(", %zu fault events", cfg.faults.events.size());
  std::printf(":\n\n");
  std::vector<std::string> headers = {"job", "iterations", "mean ms",
                                      "median ms", "p95 ms"};
  if (!faults) headers.push_back("solo ms");
  TextTable table(headers);
  const Rate goodput = scenario_goodput(cfg);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    const auto& j = result.jobs[i];
    std::vector<std::string> row = {
        j.name, std::to_string(j.iterations), post_warmup_ms(j, j.mean_ms),
        post_warmup_ms(j, j.median_ms), post_warmup_ms(j, j.p95_ms)};
    if (!faults) {
      row.push_back(TextTable::num(
          jobs[i].profile.solo_iteration(goodput).to_millis(), 1));
    }
    table.add_row(row);
  }
  std::printf("%s", table.render().c_str());
  if (!faults) return live.finish();

  std::printf("\napplied events:\n");
  for (const FaultEvent& ev : result.faults_applied) {
    std::printf("  %8.1f ms  %-13s %s\n",
                (ev.at - TimePoint::origin()).to_millis(), to_string(ev.kind),
                ev.is_link_event()
                    ? ev.link_name.c_str()
                    : jobs[static_cast<std::size_t>(ev.job.value)]
                          .name.c_str());
  }
  const int health_rc = live.finish();
  if (result.recovery) {
    std::printf("\n%s", result.recovery->summary().c_str());
    if (!result.recovery->all_converged()) return 1;
  }
  return health_rc;
}

int cmd_sweep(const Options& opts) {
  if (opts.list(kJob).empty()) usage("sweep needs at least one --job");
  if (!opts.has("param")) usage("sweep needs --param");
  if (!opts.has("values")) usage("sweep needs --values");
  const std::string param = opts.text("param");
  std::vector<double> values;
  for (const std::string& v : split(opts.text("values"), ',')) {
    values.push_back(std::strtod(v.c_str(), nullptr));
  }

  const std::vector<ScenarioJob> base_jobs = parse_scenario_jobs(opts);
  const ScenarioConfig base_cfg = scenario_config(opts, base_jobs.size());

  SweepRunner pool(SweepOptions{static_cast<unsigned>(opts.count("threads"))});
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

AdmissionPolicyKind admission_policy(const std::string& name) {
  return name == "locality" ? AdmissionPolicyKind::kLocalityOnly
                            : AdmissionPolicyKind::kCompatibilityAware;
}

/// Everything an orchestrator run is built from — cmd_cluster reads it from
/// the command line, branch replays from a snapshot's stored spec.
struct ClusterSetup {
  ArrivalConfig acfg;
  ArrivalSchedule schedule;
  Topology topo;
  OrchestratorConfig cfg;
};

ClusterSetup make_cluster_setup(const Options& opts) {
  ArrivalConfig acfg;
  acfg.seed = static_cast<std::uint64_t>(opts.num("seed"));
  acfg.rate_per_min = opts.num("rate");
  acfg.horizon = Duration::from_seconds_f(opts.num("seconds"));
  acfg.mean_service_extra = Duration::from_seconds_f(opts.num("service-s"));
  acfg.min_workers = opts.count("workers-min");
  acfg.max_workers = opts.count("workers-max");
  ArrivalSchedule schedule = generate_arrivals(acfg);

  // --fabric-gbps sets the ToR->spine uplink rate; dropping it below the
  // 50 Gb/s host rate oversubscribes the fabric and makes spanning jobs
  // contend on MULTIPLE links of one route (the multi-bottleneck regime).
  Topology topo = Topology::leaf_spine(
      opts.count("tors"), opts.count("hosts"), opts.count("spines"),
      Rate::gbps(50), Rate::gbps(opts.num("fabric-gbps")));

  OrchestratorConfig cfg;
  apply_run_options(cfg, opts, "tor0->spine0", 0);
  cfg.horizon = acfg.horizon;
  cfg.flow_schedule = opts.flag("flow-schedule");
  cfg.circle = opts.text("circle") == "single"
                   ? OrchestratorConfig::CircleMode::kSingleCircle
                   : OrchestratorConfig::CircleMode::kGraph;
  cfg.admission.policy = admission_policy(opts.text("admission"));
  cfg.admission.queue_capacity = opts.count("queue-cap");
  cfg.admission.queue_timeout =
      Duration::from_seconds_f(opts.num("queue-timeout-s"));
  return ClusterSetup{std::move(acfg), std::move(schedule), std::move(topo),
                      std::move(cfg)};
}

int cmd_cluster(const Options& opts) {
  ClusterSetup cs = make_cluster_setup(opts);
  LiveRun live(opts, cs.cfg);
  Orchestrator orch(cs.topo, cs.schedule, cs.cfg);
  const ClusterRunReport report = orch.run();
  live.verified();

  std::printf(
      "online cluster: %dx%d hosts, %d spines | %s admission, %s policy | "
      "seed %llu, %.1f jobs/min, %.0f s horizon\n",
      opts.count("tors"), opts.count("hosts"), opts.count("spines"),
      to_string(cs.cfg.admission.policy),
      to_string(cs.cfg.policy),
      static_cast<unsigned long long>(cs.acfg.seed), cs.acfg.rate_per_min,
      cs.cfg.horizon.to_seconds());
  std::printf("%s", report.summary().c_str());
  return live.finish();
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

/// Replays the recorded run in memory to the snapshot's cursor, verifying
/// it there, applies branch `b` and runs on to the original horizon.
BranchOutcome run_branch(const Options& rs, const Snapshot& target,
                         const BranchDef& b, std::size_t index) {
  // Replicate the recorded run's trace structure in memory.  The structure
  // matters beyond diffing: a sampling sink schedules simulator events, so
  // the replay only byte-matches the snapshot if the sampler cadence (or its
  // absence) is exactly what the recording run had.  An un-traced recording
  // gets a cadence-free JSONL sink, which adds no simulator events but still
  // yields a diffable stream.
  const Duration cadence =
      Duration::from_millis_f(rs.num("trace-cadence-ms"));
  std::ostringstream jsonl;
  JsonlSinkOptions jopts;
  if (rs.has("trace")) jopts.sample_cadence = cadence;
  TraceChain trace;
  trace.connect(std::make_unique<JsonlSink>(jsonl, jopts), rs.health(),
                cadence);

  CheckpointCoordinator::Options co;
  co.every = Duration::from_millis_f(rs.num("checkpoint-every"));
  co.run_spec = target.get("spec");
  co.mode = CheckpointCoordinator::Mode::kReplayOnly;
  co.target = target;
  co.target_seq = CheckpointCoordinator::read_cursor(target).seq;
  CheckpointCoordinator ck(std::move(co));
  if (rs.has("trace")) {
    ck.set_trace_bytes_fn(
        [&jsonl] { return static_cast<std::uint64_t>(jsonl.tellp()); });
  }

  std::unique_ptr<FaultInjector> extra;  // keeps cursor-applied faults alive
  // At the cursor, on either engine: mark the fork, then apply a transport
  // swap or arm the extra faults.
  const auto vary = [&](Simulator& sim, Network& net,
                        const TransportConfig& transports) {
    TraceEvent marker;
    marker.time = sim.now();
    marker.kind = TraceEventKind::kCkptBranch;
    marker.value = static_cast<double>(index);
    marker.detail = b.dimension.c_str();
    trace.bus.emit(marker);
    if (b.dimension == "transport") {
      net.replace_policy(make_policy(parse_policy_kind(b.value), transports));
    } else if (b.dimension == "faults") {
      extra = std::make_unique<FaultInjector>(sim, net, b.extra);
      extra->arm();
    }
  };

  BranchOutcome out;
  if (rs.cmd == "cluster") {
    ClusterSetup cs = make_cluster_setup(rs);
    cs.cfg.checkpoint = &ck;
    cs.cfg.trace = &trace.bus;
    cs.cfg.on_cursor = [&](OrchestratorCursorContext& ctx) {
      vary(ctx.sim, ctx.net, cs.cfg.transports);
      if (b.dimension == "admission") {
        ctx.admission.set_policy(admission_policy(b.value));
        ctx.drain_queue();
      }
    };
    Orchestrator orch(cs.topo, cs.schedule, cs.cfg);
    const ClusterRunReport report = orch.run();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%zu admitted, %zu rejected, %zu finished | mean slowdown "
                  "%.3f, worst %.3f | mean queue %.1f ms",
                  report.admitted, report.rejected, report.finished,
                  report.mean_slowdown(), report.max_slowdown(),
                  report.mean_queue_delay_ms());
    out.summary = buf;
  } else {
    const std::vector<ScenarioJob> jobs = parse_scenario_jobs(rs);
    ScenarioConfig cfg = scenario_config(rs, jobs.size());
    cfg.checkpoint = &ck;
    cfg.trace = &trace.bus;
    cfg.on_cursor = [&](Simulator& sim, Network& net) {
      vary(sim, net, cfg.transports);
    };
    const ScenarioResult result = run_dumbbell_scenario(jobs, cfg);
    for (const auto& j : result.jobs) {
      if (!out.summary.empty()) out.summary += " | ";
      out.summary += j.name + ": " + std::to_string(j.iterations) +
                     " iters, mean " + post_warmup_ms(j, j.mean_ms);
      if (!j.cdf.empty()) out.summary += " ms";
    }
  }
  if (!ck.verified()) {
    throw ResumeDivergence("branch '" + b.name +
                           "' never reached the snapshot's cursor");
  }
  trace.bus.flush();
  out.jsonl = jsonl.str();
  return out;
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

int cmd_branch(const Options& opts) {
  if (!opts.has("from")) usage("branch needs --from SNAPSHOT");
  const Snapshot target = Snapshot::load(opts.text("from"));
  const Options rs = parse_run_spec(target.get("spec"));
  const auto cursor = CheckpointCoordinator::read_cursor(target);
  const bool cluster = rs.cmd == "cluster";

  // The unmodified continuation runs first: it is the diff baseline.
  std::vector<BranchDef> branches;
  branches.push_back(BranchDef{"baseline", "baseline", "", {}});
  for (const auto& [flag, v] : opts.list(kList)) {
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
  // All --with-* events fold into one extra fault plan, armed at the
  // cursor; they must land on the continuation, not the shared history.
  for (const auto& [flag, arg] : opts.list(kFault)) {
    const double at_ms = want_num(parse_kv(arg), "at_ms");
    if (at_ms * 1e6 <= static_cast<double>(cursor.time_ns)) {
      usage(("--" + flag + " at_ms=" + std::to_string(at_ms) +
             " is before the snapshot cursor (" +
             std::to_string(static_cast<double>(cursor.time_ns) / 1e6) +
             " ms); what-if faults must hit the continuation")
                .c_str());
    }
  }
  FaultPlan extra =
      parse_faults(opts, cluster ? "tor0->spine0" : "swL->swR", 0);
  if (!extra.empty()) {
    branches.push_back(BranchDef{"faults", "faults", "", std::move(extra)});
  }
  if (branches.size() == 1) {
    usage("branch needs at least one --vary or --with-* variation");
  }

  SweepRunner pool(SweepOptions{static_cast<unsigned>(opts.count("threads"))});
  const std::vector<BranchOutcome> outcomes =
      pool.run(branches, [&](const BranchDef& b, std::size_t i) {
        return run_branch(rs, target, b, i);
      });

  std::printf(
      "branched %zu what-if continuations of '%s' from %s\n"
      "  cursor: checkpoint %llu at %.1f ms, %llu events replayed and "
      "verified byte-identical per branch\n\n",
      branches.size(), rs.cmd.c_str(), opts.text("from").c_str(),
      static_cast<unsigned long long>(cursor.seq),
      static_cast<double>(cursor.time_ns) / 1e6,
      static_cast<unsigned long long>(cursor.events_executed));

  const std::vector<std::string> base_lines = split(outcomes[0].jsonl, '\n');
  for (std::size_t i = 0; i < branches.size(); ++i) {
    std::printf("[%zu] %-24s %s\n", i, branches[i].name.c_str(),
                outcomes[i].summary.c_str());
    if (i == 0) continue;
    const Divergence d =
        first_divergence(base_lines, split(outcomes[i].jsonl, '\n'));
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

int cmd_analyze(const Options& opts) {
  if (opts.positional.size() != 1) {
    usage("analyze needs exactly one trace file (JSONL format)");
  }
  const std::string& file = opts.positional[0];
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
  if (std::strcmp(argv[1], "--help") == 0) {
    print_usage(stdout);
    return 0;
  }
  try {
    const Options opts(argv[1], {argv + 2, argv + argc});
    const std::string& cmd = opts.cmd;
    if (cmd == "zoo") return cmd_zoo();
    if (cmd == "transports") return cmd_transports();
    if (cmd == "profile") return cmd_profile(opts);
    if (cmd == "solve") return cmd_solve(opts);
    if (cmd == "scenario") return cmd_scenario(opts);
    if (cmd == "sweep") return cmd_sweep(opts);
    if (cmd == "faults") return cmd_scenario(opts);
    if (cmd == "cluster") return cmd_cluster(opts);
    if (cmd == "analyze") return cmd_analyze(opts);
    return cmd_branch(opts);
  } catch (const UsageError& e) {
    usage(e.what());
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
}
