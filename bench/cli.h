// Command-line handling shared by the bench and example mains: positional
// positive integers (sim-seconds, thread counts, grid steps), --help,
// `--flag value` options, the paper claims a bench checks on exit, the
// `--json` report tools/check_perf.py gates, and the rep timer of the perf
// benches.
#pragma once

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace ccml::bench {

/// The value `text` of option `flag` as a positive finite number.  Anything
/// else (empty, trailing characters, zero, negative, inf, nan) prints an
/// error naming the flag and exits 2.
inline double positive_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value <= 0) {
    std::fprintf(stderr, "error: %s expects a positive number, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

/// As positive_number(), for options that count something (threads).
inline int positive_count(const char* flag, const char* text) {
  const double value = positive_number(flag, text);
  if (value > INT_MAX || value != std::floor(value)) {
    std::fprintf(stderr, "error: %s expects a positive integer, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return static_cast<int>(value);
}

/// Reads the `--flag value` options of a bench main into `flags`, whose keys
/// name the flags it accepts and whose values start as their defaults, and
/// returns the flags given.  `--help` or `-h` prints the usage with each
/// flag's default and exits 0; an unknown flag, or one without a value,
/// prints an error naming it and exits 2.
inline std::set<std::string> read_flags(
    int argc, char** argv, std::map<std::string, std::string>& flags) {
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf("usage: %s", argv[0]);
      for (const auto& [flag, value] : flags) {
        std::printf(" [%s VALUE]", flag.c_str());
      }
      std::printf("\n");
      for (const auto& [flag, value] : flags) {
        std::printf("  %-10s default: %s\n", flag.c_str(),
                    value.empty() ? "none" : value.c_str());
      }
      std::exit(0);
    }
    const auto it = flags.find(argv[i]);
    if (it == flags.end() || i + 1 == argc) {
      std::fprintf(stderr, "error: %s %s\n",
                   it == flags.end() ? "unknown option" : "missing value for",
                   argv[i]);
      std::exit(2);
    }
    given.insert(it->first);
    it->second = argv[++i];
  }
  return given;
}

/// A JSON object built member by member, in insertion order.  An object
/// with no object members renders on one line.
class Json {
 public:
  Json& number(const std::string& key, double value) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.6g", value);
    return put(key, std::isfinite(value) ? text : "null");
  }
  Json& count(const std::string& key, std::uint64_t value) {
    return put(key, std::to_string(value));
  }
  Json& flag(const std::string& key, bool value) {
    return put(key, value ? "true" : "false");
  }
  Json& text(const std::string& key, const std::string& value) {
    return put(key, quote(value));
  }

  /// Adds an empty object member `key` and returns it.
  Json& object(const std::string& key) {
    members_.push_back({key, "", std::make_unique<Json>()});
    return *members_.back().object;
  }

  std::string render(const std::string& indent = "") const {
    bool flat = true;
    for (const Member& m : members_) flat = flat && !m.object;
    const std::string inner = indent + "  ";
    std::string out = "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      const Member& m = members_[i];
      if (i > 0) out += flat ? ", " : ",";
      if (!flat) out += "\n" + inner;
      out += quote(m.key) + ": " +
             (m.object ? m.object->render(inner) : m.value);
    }
    return out + (flat ? "}" : "\n" + indent + "}");
  }

 private:
  struct Member {
    std::string key;
    std::string value;  ///< rendered scalar; unused for an object member
    /// Held by pointer, so the reference object() returns survives later
    /// members' insertion.
    std::unique_ptr<Json> object;
  };

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

  Json& put(const std::string& key, const std::string& value) {
    members_.push_back({key, value, nullptr});
    return *this;
  }

  std::vector<Member> members_;
};

/// The paper claims a bench checks.  Each check prints one line,
/// `claim: <statement>: ok` or `claim: <statement>: MISS (<actual>)`;
/// a bench main returns exit_code(), which is 1 once any check missed.
class Claims {
 public:
  void check(const std::string& statement, bool holds,
             const std::string& actual) {
    missed_ = missed_ || !holds;
    outcomes_.emplace_back(statement, holds);
    std::printf("claim: %s: %s\n", statement.c_str(),
                holds ? "ok" : ("MISS (" + actual + ")").c_str());
  }

  /// Every one of `values` lies in [lo, hi]; a miss prints them all.
  void within(const std::string& statement, const std::vector<double>& values,
              double lo, double hi) {
    bool holds = true;
    std::string actual;
    for (const double v : values) {
      holds = holds && v >= lo && v <= hi;
      char text[32];
      std::snprintf(text, sizeof(text), "%.4g ", v);
      actual += text;
    }
    check(statement, holds, actual.substr(0, actual.size() - 1));
  }

  /// Every one of `values` lies within `tolerance` of `target`.
  void near(const std::string& statement, const std::vector<double>& values,
            double target, double tolerance) {
    within(statement, values, target - tolerance, target + tolerance);
  }

  int exit_code() const { return missed_ ? 1 : 0; }

  /// Writes each check's outcome into `block` as `"claims": {statement:
  /// holds, ...}`.
  void report(Json& block) const {
    Json& claims = block.object("claims");
    for (const auto& [statement, holds] : outcomes_) {
      claims.flag(statement, holds);
    }
  }

 private:
  bool missed_ = false;
  std::vector<std::pair<std::string, bool>> outcomes_;
};

/// A bench's `--json FILE` report, in the one shape tools/check_perf.py
/// gates against BENCH_engine.json: `{"bench": <name>, <block>: {...}}`.
/// A block may hold `sim_s_per_wall_s`, its throughput tripwire; `exact`,
/// its deterministic work counters; and `claims` (Claims::report()).  Every
/// other member is informational.
class Report : public Json {
 public:
  explicit Report(const std::string& bench) { text("bench", bench); }

  /// Writes the report to `path` and says so; an empty path writes nothing.
  /// Returns false when the file cannot be written.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    const bool written = f && std::fputs((render() + "\n").c_str(), f) >= 0;
    if (!f || std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }
};

/// Wall time of repeated calls, in ms: the best call, the least
/// load-contaminated sample, and the median and quartiles that show the
/// spread.
struct Timing {
  double best, q1, median, q3;
  int reps;

  /// Writes the timing into `block` as `key: {best, q1, median, q3, reps}`.
  void report(Json& block, const std::string& key) const {
    block.object(key)
        .number("best", best)
        .number("q1", q1)
        .number("median", median)
        .number("q3", q3)
        .count("reps", static_cast<std::uint64_t>(reps));
  }
};

/// Times `reps` calls of `fn`, each on its own.
template <typename Fn>
Timing time_reps(int reps, Fn&& fn) {
  Cdf ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.add(std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count());
  }
  return {ms.min(), ms.percentile(25.0), ms.median(), ms.percentile(75.0),
          reps};
}

/// A job's mean iteration time as a table cell in whole ms, or "n/a" when
/// the job has no post-warmup iteration (post_warmup_ms in
/// cluster/scenario.h, the rule ccml_sim's tables use).
template <typename Job>
std::string mean_cell(const Job& job) {
  return post_warmup_ms(job, job.mean_ms, 0);
}

/// Every job's mean iteration time (ms) in a run result, in job order.
template <typename Result>
std::vector<double> mean_ms(const Result& result) {
  std::vector<double> means;
  for (const auto& job : result.jobs) means.push_back(job.mean_ms);
  return means;
}

/// The positional arguments of a bench or example main.  `synopsis` names
/// them for the usage line, e.g. "[sim-seconds]".  `--help` or `-h` anywhere
/// prints the usage and exits 0.
class Args {
 public:
  Args(int argc, char** argv, const char* synopsis)
      : argc_(argc), argv_(argv), synopsis_(synopsis) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--help") == 0 ||
          std::strcmp(argv[i], "-h") == 0) {
        std::printf("usage: %s %s\n", argv[0], synopsis);
        std::exit(0);
      }
    }
  }

  /// The positive integer at position `index` (1 = first), or `fallback`
  /// when absent.  Anything else prints the usage and exits 2.
  int positive(int index, int fallback) const {
    if (index >= argc_) return fallback;
    const char* arg = argv_[index];
    char* end = nullptr;
    const long value = std::strtol(arg, &end, 10);
    if (end == arg || *end != '\0' || value <= 0 || value > INT_MAX) {
      std::fprintf(stderr,
                   "error: expected a positive integer, got '%s'\n"
                   "usage: %s %s\n",
                   arg, argv_[0], synopsis_);
      std::exit(2);
    }
    return static_cast<int>(value);
  }

 private:
  int argc_;
  char** argv_;
  const char* synopsis_;
};

}  // namespace ccml::bench
