// Built-in TraceBus sinks.
//
//  * RingBufferSink    — keeps the most recent N events in memory; the cheap
//                        always-on option (post-mortem inspection, tests).
//  * JsonlSink         — one JSON object per line, append-only; the
//                        machine-diffable format (byte-identical for
//                        identical scenario + seed; see obs_trace tests).
//  * ChromeTraceSink   — Chrome trace_event JSON; open the file directly in
//                        Perfetto (https://ui.perfetto.dev) or
//                        chrome://tracing.  Jobs become threads of a "sim"
//                        process (phase slices, iteration/CNP instants, async
//                        per-flow lifecycle arrows), sampled link series
//                        become counter tracks of a "links" process, and
//                        faults/solver runs land in a "control" process.
//
// All three are quiescence-compatible: they only record what producers emit,
// so a fast-forwarded idle gap (during which nothing happens by definition)
// changes nothing.  JsonlSink and ChromeTraceSink accept a sample cadence to
// request integrated link throughput/queue series.
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "obs/trace_bus.h"

namespace ccml {

/// Fixed-capacity ring of the latest events.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void on_event(const TraceEvent& ev) override;

  /// Buffered events, oldest first.
  std::vector<TraceEvent> events() const;
  std::size_t size() const { return wrapped_ ? ring_.size() : head_; }
  /// Events discarded because the ring was full.
  std::size_t dropped() const { return dropped_; }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  bool wrapped_ = false;
  std::size_t dropped_ = 0;
};

struct JsonlSinkOptions {
  /// Request integrated link samples at this period (zero = events only).
  Duration sample_cadence = Duration::zero();
};

/// Newline-delimited JSON, one event per line, written as events arrive:
/// each line is formatted in a stack buffer (std::to_chars, C-locale bytes)
/// and handed to the stream in one write before on_event returns.
class JsonlSink : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& out, JsonlSinkOptions opts = {});

  void on_event(const TraceEvent& ev) override;
  Duration sample_cadence() const override { return opts_.sample_cadence; }
  void flush() override { out_.flush(); }

 private:
  std::ostream& out_;
  JsonlSinkOptions opts_;
};

struct ChromeTraceSinkOptions {
  /// Cadence of the link throughput/queue counter tracks; zero disables
  /// counters (events only).
  Duration sample_cadence = Duration::millis(5);
};

/// Chrome trace_event JSON (the "JSON Array Format" with metadata).  Events
/// are buffered and written on flush(), which also closes any still-open
/// phase slices at the last seen timestamp.
class ChromeTraceSink : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& out, ChromeTraceSinkOptions opts = {});

  void attached(TraceBus& bus) override { bus_ = &bus; }
  void on_event(const TraceEvent& ev) override;
  Duration sample_cadence() const override { return opts_.sample_cadence; }
  void flush() override;

 private:
  std::string job_label(JobId job) const;
  std::string series_label(const TraceEvent& ev) const;

  std::ostream& out_;
  ChromeTraceSinkOptions opts_;
  TraceBus* bus_ = nullptr;
  std::vector<std::string> events_;
  std::map<std::int32_t, const char*> open_phase_;  // job -> open slice name
  std::set<std::int32_t> job_tracks_;
  double last_ts_ = 0.0;
  bool flushed_ = false;
};

}  // namespace ccml
