#include "obs/sinks.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace ccml {

namespace {

// Chrome trace process ids: one "process" per layer keeps Perfetto's track
// tree tidy.
constexpr int kSimPid = 1;    // job threads: phases, iterations, flows, CC
constexpr int kLinksPid = 2;  // counter tracks: sampled link series
constexpr int kCtrlPid = 3;   // control plane: faults, solver runs

// Thread id for events carrying no job attribution (background traffic).
constexpr int kUnattributedTid = 999;

int track_of(JobId job) { return job.valid() ? job.value : kUnattributedTid; }

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

// --- RingBufferSink --------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity)
    : ring_(capacity > 0 ? capacity : 1) {}

void RingBufferSink::on_event(const TraceEvent& ev) {
  if (wrapped_) ++dropped_;
  ring_[head_] = ev;
  if (++head_ == ring_.size()) {
    head_ = 0;
    wrapped_ = true;
  }
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + head_, ring_.end());
  }
  out.insert(out.end(), ring_.begin(), ring_.begin() + head_);
  return out;
}

// --- JsonlSink -------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& out, JsonlSinkOptions opts)
    : out_(out), opts_(opts) {}

namespace {

using namespace std::string_view_literals;

// Longest to_chars output of each fixed-width field.  t_us is an int64 ns
// count scaled to µs, so |t_us| < 1e16 ("-9223372036854776.000"); a double
// in %.17g form is at most "-1.2345678901234567e-308".
constexpr std::size_t kMaxMicrosChars = 21;
constexpr std::size_t kMaxDoubleChars = 24;
constexpr std::size_t kMaxInt32Chars = 11;
constexpr std::size_t kMaxInt64Chars = 20;

// Every byte of a line except the kind and detail text.
constexpr std::size_t kMaxFixedChars =
    "{\"t_us\":"sv.size() + kMaxMicrosChars +
    ",\"kind\":\"\""sv.size() +
    ",\"job\":"sv.size() + kMaxInt32Chars +
    ",\"flow\":"sv.size() + kMaxInt64Chars +
    ",\"link\":"sv.size() + kMaxInt32Chars +
    ",\"links\":[]"sv.size() +
    kTraceMaxContendedLinks * (kMaxInt32Chars + 1) +
    ",\"value\":"sv.size() + kMaxDoubleChars +
    ",\"value2\":"sv.size() + kMaxDoubleChars +
    ",\"detail\":\"\""sv.size() + "}\n"sv.size();

constexpr std::size_t kLineChars = 512;
// Room left for the kind and detail text; the longest kind name is 27.
static_assert(kMaxFixedChars + 64 <= kLineChars,
              "JSONL fixed-width fields must leave room for kind + detail");

/// One JSONL line under construction in a stack buffer.  Numbers are
/// formatted with std::to_chars, which is specified to match printf in the
/// C locale byte for byte (%.3f, %.17g, %d, %lld), whatever the global
/// locale.  Text longer than the room left (only an oversized static
/// `detail`) is written through to the stream after the bytes before it.
class JsonlLine {
 public:
  explicit JsonlLine(std::ostream& out) : out_(out) {}

  void text(std::string_view s) {
    if (s.size() > static_cast<std::size_t>(end() - p_)) {
      flush();
      out_.write(s.data(), static_cast<std::streamsize>(s.size()));
      return;
    }
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
  }
  void fixed3(double v) {
    p_ = std::to_chars(p_, end(), v, std::chars_format::fixed, 3).ptr;
  }
  void general17(double v) {
    p_ = std::to_chars(p_, end(), v, std::chars_format::general, 17).ptr;
  }
  void integer(std::int64_t v) { p_ = std::to_chars(p_, end(), v).ptr; }
  void flush() {
    out_.write(buf_, p_ - buf_);
    p_ = buf_;
  }

 private:
  char* end() { return buf_ + kLineChars; }

  std::ostream& out_;
  char buf_[kLineChars];
  char* p_ = buf_;
};

}  // namespace

void JsonlSink::on_event(const TraceEvent& ev) {
  JsonlLine line(out_);
  line.text("{\"t_us\":");
  line.fixed3(ev.time.since_origin().to_micros());
  line.text(",\"kind\":\"");
  line.text(to_string(ev.kind));
  line.text("\"");
  if (ev.job.valid()) {
    line.text(",\"job\":");
    line.integer(ev.job.value);
  }
  if (ev.flow.valid()) {
    line.text(",\"flow\":");
    line.integer(ev.flow.value);
  }
  if (ev.link.valid()) {
    line.text(",\"link\":");
    line.integer(ev.link.value);
  }
  // The full contended-link set, only when it says more than "link" alone
  // (a single-bottleneck route serializes exactly as before).
  if (ev.link_count > 1) {
    line.text(",\"links\":[");
    const int count = std::min<int>(ev.link_count, kTraceMaxContendedLinks);
    for (int i = 0; i < count; ++i) {
      if (i > 0) line.text(",");
      line.integer(ev.links[i].value);
    }
    line.text("]");
  }
  if (ev.value != 0.0) {
    line.text(",\"value\":");
    line.general17(ev.value);
  }
  if (ev.value2 != 0.0) {
    line.text(",\"value2\":");
    line.general17(ev.value2);
  }
  if (ev.detail != nullptr) {
    line.text(",\"detail\":\"");
    line.text(ev.detail);
    line.text("\"");
  }
  line.text("}\n");
  line.flush();
}

// --- ChromeTraceSink -------------------------------------------------------

ChromeTraceSink::ChromeTraceSink(std::ostream& out,
                                 ChromeTraceSinkOptions opts)
    : out_(out), opts_(opts) {}

std::string ChromeTraceSink::job_label(JobId job) const {
  if (bus_ != nullptr) {
    if (const std::string* name = bus_->job_name(job)) {
      return escape_json(*name);
    }
  }
  return job.valid() ? "job " + std::to_string(job.value) : "background";
}

std::string ChromeTraceSink::series_label(const TraceEvent& ev) const {
  return ev.job.valid() ? job_label(ev.job) : std::string("total");
}

void ChromeTraceSink::on_event(const TraceEvent& ev) {
  const double ts = ev.time.since_origin().to_micros();
  if (ts > last_ts_) last_ts_ = ts;
  char buf[320];
  const int tid = track_of(ev.job);
  const auto add = [&] { events_.emplace_back(buf); };
  switch (ev.kind) {
    case TraceEventKind::kPhase: {
      job_tracks_.insert(tid);
      const auto open = open_phase_.find(tid);
      if (open != open_phase_.end() && open->second != nullptr) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"E\",\"pid\":%d,\"tid\":%d,"
                      "\"ts\":%.3f}",
                      open->second, kSimPid, tid, ts);
        add();
      }
      const char* name = ev.detail != nullptr ? ev.detail : "phase";
      if (ev.detail != nullptr && std::string_view(ev.detail) != "done") {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"ph\":\"B\",\"pid\":%d,\"tid\":%d,"
                      "\"ts\":%.3f}",
                      name, kSimPid, tid, ts);
        add();
        open_phase_[tid] = name;
      } else {
        open_phase_[tid] = nullptr;
      }
      break;
    }
    case TraceEventKind::kIteration:
      job_tracks_.insert(tid);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"iteration\",\"ph\":\"i\",\"s\":\"t\","
                    "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"ms\":%.3f,\"index\":%.0f}}",
                    kSimPid, tid, ts, ev.value, ev.value2);
      add();
      break;
    case TraceEventKind::kGateOpen:
      job_tracks_.insert(tid);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"gate-open\",\"ph\":\"i\",\"s\":\"t\","
                    "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"waited_ms\":%.3f}}",
                    kSimPid, tid, ts, ev.value);
      add();
      break;
    case TraceEventKind::kFlowStart:
      job_tracks_.insert(tid);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"b\","
                    "\"id\":%lld,\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"bytes\":%.0f}}",
                    static_cast<long long>(ev.flow.value), kSimPid, tid, ts,
                    ev.value);
      add();
      break;
    case TraceEventKind::kFlowFinish:
    case TraceEventKind::kFlowAbort:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"flow\",\"cat\":\"flow\",\"ph\":\"e\","
                    "\"id\":%lld,\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"%s\":%.3f}}",
                    static_cast<long long>(ev.flow.value), kSimPid, tid, ts,
                    ev.kind == TraceEventKind::kFlowAbort ? "aborted"
                                                          : "duration_ms",
                    ev.kind == TraceEventKind::kFlowAbort ? 1.0 : ev.value2);
      add();
      break;
    case TraceEventKind::kFlowReroute:
    case TraceEventKind::kFlowPark:
    case TraceEventKind::kFlowUnpark:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"flow\",\"ph\":\"n\","
                    "\"id\":%lld,\"pid\":%d,\"tid\":%d,\"ts\":%.3f}",
                    to_string(ev.kind),
                    static_cast<long long>(ev.flow.value), kSimPid, tid, ts);
      add();
      break;
    case TraceEventKind::kRateDecrease:
      job_tracks_.insert(tid);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"CNP\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"rate_gbps\":%.3f,\"alpha\":%.4f}}",
                    kSimPid, tid, ts, ev.value * 1e-9, ev.value2);
      add();
      break;
    case TraceEventKind::kRateTimer:
      job_tracks_.insert(tid);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"rate-timer\",\"ph\":\"i\",\"s\":\"t\","
                    "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"rate_gbps\":%.3f}}",
                    kSimPid, tid, ts, ev.value * 1e-9);
      add();
      break;
    case TraceEventKind::kLinkThroughput: {
      const std::string series = series_label(ev);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"link%d %s (Gbps)\",\"ph\":\"C\",\"pid\":%d,"
                    "\"tid\":0,\"ts\":%.3f,\"args\":{\"Gbps\":%.4f}}",
                    ev.link.value, series.c_str(), kLinksPid, ts,
                    ev.value * 1e-9);
      add();
      break;
    }
    case TraceEventKind::kLinkQueue:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"link%d queue (KB)\",\"ph\":\"C\",\"pid\":%d,"
                    "\"tid\":0,\"ts\":%.3f,\"args\":{\"KB\":%.3f}}",
                    ev.link.value, kLinksPid, ts, ev.value * 1e-3);
      add();
      break;
    case TraceEventKind::kFaultApply:
    case TraceEventKind::kFaultRecover:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
                    "\"tid\":0,\"ts\":%.3f,\"args\":{\"factor\":%.3f}}",
                    ev.detail != nullptr ? ev.detail : to_string(ev.kind),
                    kCtrlPid, ts, ev.value);
      add();
      break;
    case TraceEventKind::kSolve:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"solve\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
                    "\"tid\":0,\"ts\":%.3f,"
                    "\"args\":{\"compatible\":%.0f,\"violation\":%.4f}}",
                    kCtrlPid, ts, ev.value, ev.value2);
      add();
      break;
    case TraceEventKind::kTraceDrops:
      // Self-reported observability loss (async ring overflow); global
      // instant in the control process so trace holes are visible.
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"trace-drops\",\"ph\":\"i\",\"s\":\"g\","
                    "\"pid\":%d,\"tid\":0,\"ts\":%.3f,"
                    "\"args\":{\"dropped\":%.0f}}",
                    kCtrlPid, ts, ev.value);
      add();
      break;
    case TraceEventKind::kSoloBaseline:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"solo-baseline\",\"ph\":\"i\",\"s\":\"g\","
                    "\"pid\":%d,\"tid\":0,\"ts\":%.3f,"
                    "\"args\":{\"job\":%d,\"solo_ms\":%.6g}}",
                    kCtrlPid, ts, ev.job.value, ev.value);
      add();
      break;
    case TraceEventKind::kAnomalyPhaseDrift:
    case TraceEventKind::kAnomalyQueueOscillation:
    case TraceEventKind::kAnomalyStarvation:
    case TraceEventKind::kAnomalyCongestionCollapse:
      // Analytics-derived anomalies: global instants in the control process
      // so degradations line up against faults and solver runs.
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
                    "\"tid\":0,\"ts\":%.3f,"
                    "\"args\":{\"value\":%.6g,\"value2\":%.6g}}",
                    to_string(ev.kind), kCtrlPid, ts, ev.value, ev.value2);
      add();
      break;
    case TraceEventKind::kHistogramSummary:
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"histogram-summary\",\"ph\":\"i\",\"s\":\"g\","
                    "\"pid\":%d,\"tid\":0,\"ts\":%.3f,"
                    "\"args\":{\"p99\":%.6g,\"count\":%.0f}}",
                    kCtrlPid, ts, ev.value, ev.value2);
      add();
      break;
    case TraceEventKind::kJobSubmit:
    case TraceEventKind::kJobAdmit:
    case TraceEventKind::kJobReject:
    case TraceEventKind::kJobDepart:
      // Orchestrator lifecycle marks live in the control process so churn is
      // visible next to faults and solver runs.
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
                    "\"tid\":0,\"ts\":%.3f,"
                    "\"args\":{\"job\":%d,\"value\":%.3f}}",
                    to_string(ev.kind), kCtrlPid, ts, ev.job.value, ev.value);
      add();
      break;
    case TraceEventKind::kCkptWrite:
    case TraceEventKind::kCkptBranch:
      // Snapshot machinery: global instants in the control process, so a
      // resumed or branched trace shows where it was cut or forked.
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"g\",\"pid\":%d,"
                    "\"tid\":0,\"ts\":%.3f,"
                    "\"args\":{\"value\":%.17g,\"value2\":%.17g}}",
                    to_string(ev.kind), kCtrlPid, ts, ev.value, ev.value2);
      add();
      break;
    case TraceEventKind::kCcDecision:
    case TraceEventKind::kCcPhase:
      // Transport decisions land on the job's track, next to its CNPs.
      job_tracks_.insert(tid);
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,"
                    "\"tid\":%d,\"ts\":%.3f,"
                    "\"args\":{\"value\":%.17g,\"value2\":%.17g}}",
                    to_string(ev.kind), kSimPid, tid, ts, ev.value,
                    ev.value2);
      add();
      break;
  }
}

void ChromeTraceSink::flush() {
  if (flushed_) return;
  flushed_ = true;
  // Close phase slices still open at the end of the run.
  char buf[320];
  for (const auto& [tid, name] : open_phase_) {
    if (name == nullptr) continue;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"E\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%.3f}",
                  name, kSimPid, tid, last_ts_);
    events_.emplace_back(buf);
  }
  out_ << "{\"traceEvents\":[\n";
  // Metadata first: process / thread display names.
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSimPid
       << ",\"tid\":0,\"args\":{\"name\":\"sim\"}},\n";
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kLinksPid
       << ",\"tid\":0,\"args\":{\"name\":\"links\"}},\n";
  out_ << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kCtrlPid
       << ",\"tid\":0,\"args\":{\"name\":\"control\"}}";
  for (const int tid : job_tracks_) {
    const JobId job{tid == kUnattributedTid ? -1 : tid};
    out_ << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kSimPid
         << ",\"tid\":" << tid << ",\"args\":{\"name\":\""
         << job_label(job) << "\"}}";
  }
  for (const std::string& ev : events_) {
    out_ << ",\n" << ev;
  }
  out_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
  out_.flush();
}

}  // namespace ccml
