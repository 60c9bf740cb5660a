// JsonlSink formats with std::to_chars.  These tests pin its output byte for
// byte against the snprintf formatter it replaced (kept below as the
// oracle) on seeded random events, and check that a line longer than the
// sink's stack buffer still comes out whole and reads back.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analytics/trace_reader.h"
#include "obs/sinks.h"

namespace ccml {
namespace {

constexpr int kKindCount = static_cast<int>(TraceEventKind::kCcPhase) + 1;

// The snprintf JSONL formatter JsonlSink used before std::to_chars, with its
// 320-byte buffer widened so that no line this file builds for it is cut.
std::string oracle_line(const TraceEvent& ev) {
  char buf[4096];
  int n = std::snprintf(buf, sizeof(buf), "{\"t_us\":%.3f,\"kind\":\"%s\"",
                        ev.time.since_origin().to_micros(),
                        to_string(ev.kind));
  const auto add = [&](const char* fmt, auto v) {
    n += std::snprintf(buf + n, sizeof(buf) - n, fmt, v);
  };
  if (ev.job.valid()) add(",\"job\":%d", ev.job.value);
  if (ev.flow.valid()) {
    add(",\"flow\":%lld", static_cast<long long>(ev.flow.value));
  }
  if (ev.link.valid()) add(",\"link\":%d", ev.link.value);
  if (ev.link_count > 1) {
    add(",\"links\":[%d", ev.links[0].value);
    for (int i = 1; i < ev.link_count; ++i) add(",%d", ev.links[i].value);
    n += std::snprintf(buf + n, sizeof(buf) - n, "]");
  }
  if (ev.value != 0.0) add(",\"value\":%.17g", ev.value);
  if (ev.value2 != 0.0) add(",\"value2\":%.17g", ev.value2);
  if (ev.detail != nullptr) add(",\"detail\":\"%s\"", ev.detail);
  std::ostringstream out;
  out << buf << "}\n";
  return out.str();
}

std::string sink_line(const TraceEvent& ev) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.on_event(ev);
  return out.str();
}

// Payload values chosen to reach every %.17g branch: zero of both signs
// (skipped), subnormals, both exponent extremes, integers around 2^53,
// infinities and NaNs of both signs, and 17-significant-digit values.
const std::vector<double>& special_values() {
  static const std::vector<double> values = [] {
    using L = std::numeric_limits<double>;
    const double two53 = 9007199254740992.0;
    return std::vector<double>{
        0.0, -0.0, L::denorm_min(), -L::denorm_min(), 2.2250738585072009e-308,
        L::min(), -L::min(), 1e-300, -1e-300, 1e300, -1e300, L::max(),
        -L::max(), L::lowest(), two53 - 1, two53, two53 + 2, -two53,
        L::infinity(), -L::infinity(), L::quiet_NaN(), -L::quiet_NaN(),
        0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-5, 1e-4, 123456789012345678.0, 1e16,
        1e17, 9.9999999999999995e16, 42.5e9, 1e21, 0.5, 1.0, -1.0};
  }();
  return values;
}

double random_value(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0: {
      const auto& s = special_values();
      return s[rng() % s.size()];
    }
    case 1: {  // any bit pattern: every exponent, NaN payloads
      const std::uint64_t bits = rng();
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      return v;
    }
    case 2:  // rate-like magnitudes (bits/s, bytes, ms)
      return std::uniform_real_distribution<double>(0.0, 1e11)(rng);
    default:
      return std::uniform_real_distribution<double>(-1.0, 1.0)(rng) *
             std::pow(10.0, static_cast<double>(rng() % 40) - 20.0);
  }
}

template <typename Id, typename V>
Id random_id(std::mt19937_64& rng) {
  using L = std::numeric_limits<V>;
  switch (rng() % 6) {
    case 0: return Id{-1};
    case 1: return Id{static_cast<V>(-1 - static_cast<V>(rng() % 1000))};
    case 2: return Id{0};
    case 3: return Id{L::max()};
    case 4: return Id{L::min()};
    default: return Id{static_cast<V>(rng() % 100000)};
  }
}

TraceEvent random_event(std::mt19937_64& rng, int kind) {
  static const char* const kDetails[] = {"compute", "gate-wait", "comm",
                                         "cached", "link-down", "",
                                         "iteration_ms"};
  TraceEvent ev;
  ev.kind = static_cast<TraceEventKind>(kind);
  constexpr std::uint64_t kMaxNs = 1'000'000'000'000'000;
  ev.time = TimePoint::origin() +
            Duration::nanos(static_cast<std::int64_t>(rng() % (kMaxNs + 1)));
  ev.job = random_id<JobId, std::int32_t>(rng);
  ev.flow = random_id<FlowId, std::int64_t>(rng);
  ev.link = random_id<LinkId, std::int32_t>(rng);
  ev.link_count =
      static_cast<std::uint8_t>(rng() % (kTraceMaxContendedLinks + 1));
  for (int i = 0; i < ev.link_count; ++i) {
    ev.links[i] = random_id<LinkId, std::int32_t>(rng);
  }
  ev.value = random_value(rng);
  ev.value2 = random_value(rng);
  if (rng() % 3 == 0) ev.detail = kDetails[rng() % std::size(kDetails)];
  return ev;
}

TEST(JsonlFormat, MatchesSnprintfOracleOnRandomEvents) {
  std::mt19937_64 rng(20221114);
  for (int i = 0; i < 200'000; ++i) {
    const TraceEvent ev = random_event(rng, i % kKindCount);
    ASSERT_EQ(sink_line(ev), oracle_line(ev)) << "event " << i;
  }
}

TEST(JsonlFormat, EveryKindAndLinkCountMatches) {
  TraceEvent ev;
  ev.time = TimePoint::origin() + Duration::nanos(123'456'789);
  ev.job = JobId{3};
  ev.flow = FlowId{77};
  ev.link = LinkId{5};
  ev.value = 42.5e9;
  ev.value2 = 0.0625;
  for (int k = 0; k < kKindCount; ++k) {
    ev.kind = static_cast<TraceEventKind>(k);
    for (int count = 0; count <= kTraceMaxContendedLinks; ++count) {
      ev.link_count = static_cast<std::uint8_t>(count);
      for (int i = 0; i < count; ++i) ev.links[i] = LinkId{5 + 10 * i};
      ASSERT_EQ(sink_line(ev), oracle_line(ev))
          << to_string(ev.kind) << " with " << count << " links";
    }
  }
}

TEST(JsonlFormat, ZeroValuesOfEitherSignAreOmitted) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kRateTimer;
  for (const double zero : {0.0, -0.0}) {
    ev.value = zero;
    ev.value2 = zero;
    const std::string line = sink_line(ev);
    EXPECT_EQ(line, "{\"t_us\":0.000,\"kind\":\"rate-timer\"}\n");
    EXPECT_EQ(line, oracle_line(ev));
  }
}

TEST(JsonlFormat, SpecialValuesMatchInBothSlots) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kCcDecision;
  for (const double a : special_values()) {
    for (const double b : special_values()) {
      ev.value = a;
      ev.value2 = b;
      ASSERT_EQ(sink_line(ev), oracle_line(ev)) << a << " / " << b;
    }
  }
}

// t_us is ns * 1e-3 printed with three decimals.  Between 2^43 and 2^44 µs
// doubles are spaced 2^-9 µs apart, so a whole-ns time such as ...062 ns
// lands exactly on a .xxx5 µs tie, which %.3f rounds half to even.
TEST(JsonlFormat, TimestampRoundingEdgesMatch) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kPhase;
  std::vector<std::int64_t> ns;
  for (std::int64_t base : {std::int64_t{0}, std::int64_t{999'999'999},
                            std::int64_t{1'000'000'000'000'000} - 5000,
                            (std::int64_t{1} << 43) * 1000 + 7'000'000,
                            std::numeric_limits<std::int64_t>::max() - 5000}) {
    for (std::int64_t d = 0; d < 5000; ++d) ns.push_back(base + d);
  }
  int ties = 0;
  for (const std::int64_t t : ns) {
    ev.time = TimePoint::origin() + Duration::nanos(t);
    ASSERT_EQ(sink_line(ev), oracle_line(ev)) << t << " ns";
    const double us = ev.time.since_origin().to_micros();
    const double thousandths = (us - std::floor(us)) * 2000.0;
    if (thousandths == std::floor(thousandths) &&
        std::fmod(thousandths, 2.0) == 1.0) {
      ++ties;
    }
  }
  EXPECT_GT(ties, 0) << "no exact .xxx5 tie was exercised";
}

// A 1 KB detail: far past the old 320-byte buffer and the sink's room.
const std::string& long_detail() {
  static const std::string detail = [] {
    std::string s;
    for (int i = 0; s.size() < 1024; ++i) {
      s += "segment-" + std::to_string(i) + ";";
    }
    return s;
  }();
  return detail;
}

// Every detail length from empty to past the sink's buffer, on the widest
// fixed fields, so the write-through boundary is crossed byte by byte.
TEST(JsonlFormat, DetailOfAnyLengthMatches) {
  TraceEvent ev;
  ev.time = TimePoint::origin() +
            Duration::nanos(std::numeric_limits<std::int64_t>::min());
  ev.kind = TraceEventKind::kAnomalyCongestionCollapse;
  ev.job = JobId{std::numeric_limits<std::int32_t>::max()};
  ev.flow = FlowId{std::numeric_limits<std::int64_t>::max()};
  ev.link = LinkId{std::numeric_limits<std::int32_t>::max()};
  ev.link_count = kTraceMaxContendedLinks;
  for (LinkId& l : ev.links) {
    l = LinkId{std::numeric_limits<std::int32_t>::min()};
  }
  ev.value = -1.2345678901234567e-308;
  ev.value2 = -std::numeric_limits<double>::max();
  for (std::size_t len = 0; len <= 600; ++len) {
    const std::string detail = long_detail().substr(0, len);
    ev.detail = detail.c_str();
    ASSERT_EQ(sink_line(ev), oracle_line(ev)) << len << "-byte detail";
  }
}

// A 1 KB static detail, with the ids and links at their widest (the flow id
// as wide as the reader takes exactly), must come out as one complete line
// that the trace reader parses back field for field.
TEST(JsonlFormat, OversizedDetailWritesOneFullLine) {
  const std::string& detail = long_detail();
  TraceEvent ev;
  ev.time = TimePoint::origin() + Duration::nanos(999'999'999'999'999);
  ev.kind = TraceEventKind::kAnomalyCongestionCollapse;
  ev.job = JobId{std::numeric_limits<std::int32_t>::max()};
  // The reader takes ids through a double, so 2^53 is the widest flow id
  // that reads back exactly.
  ev.flow = FlowId{std::int64_t{1} << 53};
  ev.link = LinkId{std::numeric_limits<std::int32_t>::max()};
  ev.link_count = kTraceMaxContendedLinks;
  for (LinkId& l : ev.links) {
    l = LinkId{std::numeric_limits<std::int32_t>::max()};
  }
  ev.value = -1.2345678901234567e-308;
  ev.value2 = -std::numeric_limits<double>::max();
  ev.detail = detail.c_str();

  const std::string line = sink_line(ev);
  ASSERT_GT(line.size(), detail.size() + 200);
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  EXPECT_EQ(line.substr(line.size() - 3), "\"}\n");
  EXPECT_EQ(line, oracle_line(ev));

  TraceEvent back;
  std::string error;
  ASSERT_TRUE(parse_trace_jsonl_line(line.substr(0, line.size() - 1), back,
                                     &error))
      << error;
  EXPECT_EQ(back.time, ev.time);
  EXPECT_EQ(back.kind, ev.kind);
  EXPECT_EQ(back.job, ev.job);
  EXPECT_EQ(back.flow, ev.flow);
  EXPECT_EQ(back.link, ev.link);
  ASSERT_EQ(back.link_count, ev.link_count);
  for (int i = 0; i < kTraceMaxContendedLinks; ++i) {
    EXPECT_EQ(back.links[i], ev.links[i]);
  }
  EXPECT_EQ(back.value, ev.value);
  EXPECT_EQ(back.value2, ev.value2);
  EXPECT_STREQ(back.detail, detail.c_str());
}

// Each on_event hands the stream one whole line before it returns, so byte
// counters between events (the checkpoint cursor, per-kind byte meters)
// see exact line boundaries.
TEST(JsonlFormat, EachEventEndsOnALineBoundary) {
  std::ostringstream out;
  JsonlSink sink(out);
  std::mt19937_64 rng(7);
  std::size_t expected = 0;
  for (int i = 0; i < 1000; ++i) {
    const TraceEvent ev = random_event(rng, i % kKindCount);
    sink.on_event(ev);
    expected += oracle_line(ev).size();
    ASSERT_EQ(out.str().size(), expected);
    ASSERT_EQ(out.str().back(), '\n');
  }
}

}  // namespace
}  // namespace ccml
