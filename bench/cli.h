// Command-line handling shared by the bench and example mains: positional
// positive integers (sim-seconds, thread counts, grid steps) and --help.
#pragma once

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ccml::bench {

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
