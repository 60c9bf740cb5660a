// Command-line handling shared by the bench and example mains: positional
// positive integers (sim-seconds, thread counts, grid steps), --help,
// `--flag value` options, and the paper claims a bench checks on exit.
#pragma once

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

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
/// returns the flags given.  An unknown flag, or one without a value, prints
/// an error naming it and exits 2.
inline std::set<std::string> read_flags(
    int argc, char** argv, std::map<std::string, std::string>& flags) {
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
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

/// The paper claims a bench checks.  Each check prints one line,
/// `claim: <statement>: ok` or `claim: <statement>: MISS (<actual>)`;
/// a bench main returns exit_code(), which is 1 once any check missed.
class Claims {
 public:
  void check(const std::string& statement, bool holds,
             const std::string& actual) {
    missed_ = missed_ || !holds;
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

 private:
  bool missed_ = false;
};

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
