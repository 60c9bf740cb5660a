// Measurement tooling shared by the benchmark's workloads: clocks, digests,
// an in-memory byte-counting JSONL destination, and a TraceSink decorator
// that records spans and per-kind event/byte counts.  Everything here lives
// in the benchmark; the library is driven only through its public API.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_bus.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user+sys CPU seconds so far.
double process_cpu_seconds();

/// FNV-1a 64, chainable through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t v);

/// Splits a seed into independent per-item values (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item);

/// Stand-in for a trace file: counts every byte written and hashes the bytes
/// from a chosen offset on, so a recorded run and its resume can be compared
/// past the snapshot cursor without keeping tens of MB in memory.
class ByteCountingBuf : public std::streambuf {
 public:
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  /// Bytes at offsets >= `hash_from` feed hash().
  explicit ByteCountingBuf(std::uint64_t hash_from = kNever)
      : hash_from_(hash_from) {}

  std::uint64_t bytes() const { return count_; }
  /// Restarts the hash at the current offset.
  void hash_from_here() {
    hash_from_ = count_;
    hash_ = fnv1a({});
  }
  std::uint64_t hash() const { return hash_; }

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::uint64_t hash_from_;
  std::uint64_t count_ = 0;
  std::uint64_t hash_ = fnv1a({});
};

/// Wraps a sink (or, with `inner` null, stands alone as a counting sink) and
/// records the time spent inside the wrapped sink's on_event/flush plus, per
/// event kind, the events seen and — given the byte counter the wrapped sink
/// writes to — the bytes each kind produced.
class MeteredSink final : public ccml::TraceSink {
 public:
  explicit MeteredSink(ccml::TraceSink* inner = nullptr,
                       const ByteCountingBuf* bytes = nullptr)
      : inner_(inner), bytes_(bytes) {}

  void on_event(const ccml::TraceEvent& ev) override;
  ccml::Duration sample_cadence() const override;
  std::vector<ccml::LinkId> sampled_links() const override;
  bool quiescence_compatible() const override;
  void attached(ccml::TraceBus& bus) override;
  void flush() override;

  double busy_s() const { return static_cast<double>(busy_ns_) * 1e-9; }
  std::uint64_t events() const { return events_; }
  std::uint64_t events_of(ccml::TraceEventKind kind) const {
    return kinds_[static_cast<std::size_t>(kind)].events;
  }
  std::uint64_t bytes_of(ccml::TraceEventKind kind) const {
    return kinds_[static_cast<std::size_t>(kind)].bytes;
  }
  /// Sum of kCkptWrite value2 (serialized snapshot bytes).
  double snapshot_bytes() const { return snapshot_bytes_; }

 private:
  struct KindCount {
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
  };

  ccml::TraceSink* inner_;
  const ByteCountingBuf* bytes_;
  std::int64_t busy_ns_ = 0;
  std::uint64_t events_ = 0;
  double snapshot_bytes_ = 0.0;
  std::array<KindCount, 256> kinds_{};
};

/// Adds every TraceBus counter the per-layer table names (cc.*, workload.*,
/// net.*) into `layers`.
void add_bus_counters(const ccml::TraceBus& bus,
                      std::map<std::string, double>& layers);

}  // namespace perfbench
