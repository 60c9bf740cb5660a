#include "probes.h"

#include <cstdio>
#include <ctime>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (item + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int ByteCountingBuf::overflow(int ch) {
  if (ch == traits_type::eof()) return 0;
  const char c = static_cast<char>(ch);
  xsputn(&c, 1);
  return ch;
}

std::streamsize ByteCountingBuf::xsputn(const char* s, std::streamsize n) {
  const auto len = static_cast<std::uint64_t>(n);
  if (count_ + len > hash_from_) {
    const std::uint64_t skip = hash_from_ > count_ ? hash_from_ - count_ : 0;
    hash_ = fnv1a(std::string_view(s + skip, len - skip), hash_);
  }
  count_ += len;
  return n;
}

void MeteredSink::on_event(const ccml::TraceEvent& ev) {
  KindCount& k = kinds_[static_cast<std::size_t>(ev.kind)];
  ++k.events;
  ++events_;
  if (ev.kind == ccml::TraceEventKind::kCkptWrite) snapshot_bytes_ += ev.value2;
  if (inner_ == nullptr) return;
  const std::uint64_t before = bytes_ != nullptr ? bytes_->bytes() : 0;
  const Clock::time_point t0 = Clock::now();
  inner_->on_event(ev);
  busy_ns_ += (Clock::now() - t0).count();
  if (bytes_ != nullptr) k.bytes += bytes_->bytes() - before;
}

ccml::Duration MeteredSink::sample_cadence() const {
  return inner_ != nullptr ? inner_->sample_cadence() : ccml::Duration::zero();
}

std::vector<ccml::LinkId> MeteredSink::sampled_links() const {
  return inner_ != nullptr ? inner_->sampled_links()
                           : std::vector<ccml::LinkId>{};
}

bool MeteredSink::quiescence_compatible() const {
  return inner_ == nullptr || inner_->quiescence_compatible();
}

void MeteredSink::attached(ccml::TraceBus& bus) {
  if (inner_ != nullptr) inner_->attached(bus);
}

void MeteredSink::flush() {
  if (inner_ == nullptr) return;
  const Clock::time_point t0 = Clock::now();
  inner_->flush();
  busy_ns_ += (Clock::now() - t0).count();
}

void add_bus_counters(const ccml::TraceBus& bus,
                      std::map<std::string, double>& layers) {
  // Library counter name -> per-layer metric name.
  static const std::pair<const char*, const char*> kCounters[] = {
      {"dcqcn.cnp", "cc.dcqcn.cnp"},
      {"dcqcn.timer_fires", "cc.dcqcn.timer_fires"},
      {"timely.decreases", "cc.timely.decreases"},
      {"swift.decreases", "cc.swift.decreases"},
      {"bbr.phase_changes", "cc.bbr.phase_changes"},
      {"jobs.iterations", "workload.iterations"},
      {"net.flows_started", "net.flows_started"},
      {"net.flows_finished", "net.flows_finished"},
  };
  const auto& counters = bus.counters();
  for (const auto& [from, to] : kCounters) {
    const auto it = counters.find(from);
    layers[to] += it == counters.end() ? 0.0
                                       : static_cast<double>(it->second.value());
  }
}

}  // namespace perfbench
