// Telemetry recorders, fed by the observability bus (src/obs).
//
// These produce the throughput series the paper plots: per-job throughput
// over time (Fig. 1b/1c) and per-job link utilization across iterations
// (Fig. 2).
//
// Split of responsibilities: TraceThroughputSampler is the one NetObserver
// that integrates per-link/per-job bit progress every fluid step and
// publishes time-weighted kLinkThroughput / kLinkQueue samples onto the bus;
// LinkThroughputRecorder is a plain TraceSink that consumes them.
// bind_trace_bus() wires a bus to a network and spins up the sampler when
// any sink asks for sampled series.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "net/types.h"
#include "obs/trace_bus.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

/// Integrates per-link, per-job bit progress every fluid step and publishes
/// time-weighted kLinkThroughput (link total, then one event per job share)
/// and kLinkQueue samples at the sinks' negotiated cadence.  Links currently
/// in use are sampled automatically; `watch` forces specific links into the
/// series even while idle (their samples report zero).
///
/// Quiescence-compatible (unless a non-compatible sink vetoes it): an idle
/// gap contributes exactly zero bits to every window, so the samples
/// synthesized in on_idle_gap() are bit-identical to having stepped through
/// the gap — the regression test in net_observer_test.cpp holds this exact.
class TraceThroughputSampler : public NetObserver {
 public:
  TraceThroughputSampler(TraceBus& bus, Duration cadence,
                         std::vector<LinkId> watch, bool quiescence_ok);

  void on_step(const Network& net, TimePoint now) override;
  void on_idle_gap(const Network& net, TimePoint from, TimePoint to) override;
  bool quiescence_compatible() const override { return quiescence_ok_; }

 private:
  struct LinkAcc {
    double total_bits = 0.0;
    std::map<std::int32_t, double> job_bits;  // JobId value -> bits
    Gauge* queue_gauge = nullptr;
  };
  /// Emits one sample batch at `t` and resets the window.  `idle` marks a
  /// gap-synthesized batch (queues are drained by definition).
  void emit_samples(const Network& net, TimePoint t, bool idle);

  TraceBus& bus_;
  Duration cadence_;
  bool quiescence_ok_;
  Duration accumulated_ = Duration::zero();
  std::map<std::int32_t, LinkAcc> links_;  // LinkId value -> window state
};

/// Binds `bus` to `net`: installs the bus on the network (so net/cc/workload
/// /faults producers publish), and when any sink declares a sample cadence,
/// attaches a TraceThroughputSampler at the minimum declared cadence
/// watching the union of the sinks' requested links.  Returns the sampler
/// (nullptr when no sink samples); the caller keeps it alive for the run.
std::unique_ptr<TraceThroughputSampler> bind_trace_bus(TraceBus& bus,
                                                       Network& net);

/// Samples the total and per-job throughput crossing one link at a fixed
/// interval (time-weighted average over the interval).  Consumes the
/// kLinkThroughput events published by the TraceThroughputSampler.
class LinkThroughputRecorder : public TraceSink {
 public:
  LinkThroughputRecorder(LinkId link, Duration interval);

  /// Subscribes to `bus`; call once before the run.  Throws std::logic_error
  /// when attached twice.
  void attach(TraceBus& bus);

  // TraceSink: declare the sampling this recorder needs.
  Duration sample_cadence() const override { return interval_; }
  std::vector<LinkId> sampled_links() const override { return {link_}; }
  void on_event(const TraceEvent& ev) override;

  struct Sample {
    TimePoint time;                       ///< end of the interval
    Rate total;                           ///< all traffic on the link
    std::map<JobId, Rate> per_job;        ///< split by flow job tag
  };
  const std::vector<Sample>& samples() const { return samples_; }

  /// All job ids ever seen on the link, sorted.
  std::vector<JobId> jobs_seen() const;

 private:
  LinkId link_;
  Duration interval_;
  std::vector<Sample> samples_;
  std::vector<JobId> jobs_seen_;  // sorted
  bool attached_ = false;
};

}  // namespace ccml
