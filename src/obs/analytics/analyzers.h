// Streaming analyzers: fold a TraceEvent stream into the paper-level
// quantities the run-health report is built from.
//
// Each analyzer consumes the kinds it cares about via `on_event`, appending
// any derived `anomaly.*` events to the caller's buffer; the AnalyticsEngine
// (engine.h) drives them all in a fixed order so the derived stream is
// deterministic.  Analyzers never touch a TraceBus — they are plain folds
// over the event sequence, which is what makes the online (bus-subscribed)
// and offline (`ccml_sim analyze` replay) paths provably identical.
//
// All sliding windows are anchored at the first event's timestamp and
// advanced by event time only, so results depend on the trace alone — not
// on delivery timing, thread counts, or sync-vs-async fan-out.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "obs/analytics/hdr_histogram.h"
#include "obs/trace_event.h"
#include "util/time.h"

namespace ccml {

/// What the engine asks of the trace bus.  The analyzers' detector
/// thresholds are named constants of each analyzer, calibrated so a healthy
/// dumbbell run (gated or not) reports zero anomalies; see
/// docs/analytics.md for the rationale.
struct AnalyticsConfig {
  /// Link-series sampling period the engine asks the bus for (fairness,
  /// queue and collapse analytics need kLinkThroughput / kLinkQueue).
  /// Zero disables the request (sink-declared cadences still apply).
  Duration sample_cadence = Duration::millis(5);
};

// --- Iterations, slowdown, starvation --------------------------------------

class IterationAnalyzer {
 public:
  struct JobState {
    HdrHistogram hist;           ///< iteration times, ms
    double sum_ms = 0.0;         ///< exact running sum (report-only)
    double min_ms = 0.0;
    TimePoint last_iteration;    ///< time of the latest iteration edge
    bool saw_iteration = false;
    bool active = true;          ///< false once done / departed
    bool starving = false;       ///< inside a flagged starvation episode
    std::vector<double> sorted_ms;  ///< kept sorted for the median
  };

  /// Starvation: a job with >= kStarvationMinIterations observed goes
  /// quiet for more than kStarvationFactor * its median iteration time.
  static constexpr double kStarvationFactor = 8.0;
  static constexpr int kStarvationMinIterations = 3;

  void on_event(const TraceEvent& ev, std::vector<TraceEvent>& derived);

  const std::map<std::int32_t, JobState>& jobs() const { return jobs_; }
  double median_ms(const JobState& job) const;
  std::uint64_t starvation_events() const { return starvation_events_; }

 private:
  std::map<std::int32_t, JobState> jobs_;
  std::uint64_t starvation_events_ = 0;
};

// --- Interleaving / compatibility ------------------------------------------

/// Integrates "how many jobs are in a comm phase" over time, globally (from
/// `phase` events) and per bottleneck link (from flow lifecycle events),
/// into busy vs overlapped nanoseconds; runs the phase-drift state machine
/// on the windowed global overlap fraction.
class InterleavingAnalyzer {
 public:
  struct Overlap {
    std::int64_t busy_ns = 0;     ///< >= 1 job in comm
    std::int64_t overlap_ns = 0;  ///< >= 2 jobs in comm
    /// 1 - overlap/busy: 1 = perfectly interleaved, 0 = fully overlapped.
    double score() const;
  };

  struct LinkState {
    std::map<std::int32_t, int> job_flows;  ///< job -> active flow count
    int jobs_active = 0;
    Overlap overlap;
    TimePoint last;
    bool started = false;
  };

  /// Phase-drift detector: windowed comm-overlap fraction (overlap /
  /// busy).  Arms once interleaving is established (fraction <= the arm
  /// threshold) and fires when it decays past the fire threshold; re-arms
  /// after settling.
  static constexpr Duration kDriftWindow = Duration::millis(100);
  static constexpr double kDriftArmThreshold = 0.10;
  static constexpr double kDriftFireThreshold = 0.25;

  void on_event(const TraceEvent& ev, std::vector<TraceEvent>& derived);
  /// Closes the open integration interval at trace end.
  void finish(TimePoint end, std::vector<TraceEvent>& derived);

  const Overlap& global() const { return global_; }
  const std::map<std::int32_t, LinkState>& per_link() const { return links_; }
  std::int64_t elapsed_ns() const {
    return started_ ? (last_ - first_).ns() : 0;
  }
  std::uint64_t drift_events() const { return drift_events_; }

 private:
  struct FlowState {
    /// Contended-link set the flow is charged to: the event's `links` array
    /// when present, else the single primary `link` — so multi-bottleneck
    /// traces attribute a flow to EVERY tied link, while legacy traces
    /// behave exactly as before.
    std::int32_t links[kTraceMaxContendedLinks] = {};
    std::uint8_t nlinks = 0;
    std::int32_t job = -1;
    bool active = false;
  };

  void advance_global(TimePoint t, std::vector<TraceEvent>& derived);
  void close_drift_window(TimePoint at, std::vector<TraceEvent>& derived);
  void link_integrate(LinkState& ls, TimePoint t);
  void link_flow_delta(std::int32_t link, std::int32_t job, int delta,
                       TimePoint t);

  // Global comm occupancy from phase events.
  std::map<std::int32_t, bool> in_comm_;  ///< job -> currently in "comm"
  int comm_jobs_ = 0;
  Overlap global_;
  TimePoint first_, last_;
  bool started_ = false;

  // Drift window accumulators (subset of the global integration).
  TimePoint window_end_;
  std::int64_t win_busy_ns_ = 0;
  std::int64_t win_overlap_ns_ = 0;
  enum class DriftState { kUnarmed, kArmed, kFired };
  DriftState drift_ = DriftState::kUnarmed;
  double armed_fraction_ = 0.0;
  std::uint64_t drift_events_ = 0;

  // Per-bottleneck-link occupancy from flow events.
  std::map<std::int64_t, FlowState> flows_;
  std::map<std::int32_t, LinkState> links_;
};

// --- Fairness, goodput, collapse -------------------------------------------

class FairnessAnalyzer {
 public:
  struct LinkState {
    double goodput_sum_bps = 0.0;  ///< sum of sampled link totals
    std::uint64_t goodput_samples = 0;
    // Collapse detector: windowed goodput vs established peak.
    double win_goodput_sum = 0.0;
    std::uint64_t win_goodput_n = 0;
    double win_queue_sum = 0.0;
    std::uint64_t win_queue_n = 0;
    double peak_window_bps = 0.0;
    bool collapsed = false;
  };

  /// Jain-fairness window over per-job throughput shares.
  static constexpr Duration kFairnessWindow = Duration::millis(50);
  /// Congestion collapse: a link's windowed goodput drops below
  /// kCollapseRatio * its established peak while the queue stays above
  /// kCollapseMinQueueBytes.
  static constexpr double kCollapseRatio = 0.25;
  static constexpr double kCollapseMinQueueBytes = 256.0 * 1024.0;

  void on_event(const TraceEvent& ev, std::vector<TraceEvent>& derived);
  void finish(TimePoint end, std::vector<TraceEvent>& derived);

  double jain_overall() const;
  /// Minimum windowed Jain index over windows with >= 2 active jobs;
  /// 1.0 when no such window exists.
  double jain_min_window() const { return windows_ ? jain_min_ : 1.0; }
  std::uint64_t windows() const { return windows_; }
  const std::map<std::int32_t, LinkState>& links() const { return links_; }
  std::uint64_t collapse_events() const { return collapse_events_; }

 private:
  void close_window(TimePoint at, std::vector<TraceEvent>& derived);

  std::map<std::int32_t, double> job_total_;  ///< job -> sum of share samples
  std::map<std::int32_t, double> job_window_;
  std::map<std::int32_t, LinkState> links_;
  TimePoint window_end_;
  bool started_ = false;
  double jain_min_ = 1.0;
  std::uint64_t windows_ = 0;
  std::uint64_t collapse_events_ = 0;
};

// --- Queue occupancy & oscillation -----------------------------------------

class QueueAnalyzer {
 public:
  struct LinkState {
    HdrHistogram hist;  ///< queue depth samples, bytes
    double peak_bytes = 0.0;
    // Oscillation detector.
    double prev = 0.0;
    bool have_prev = false;
    int direction = 0;            ///< sign of the last movement
    double last_extreme = 0.0;    ///< value at the last direction change
    std::deque<std::int64_t> swings_ns;  ///< times of qualifying reversals
  };

  /// Queue oscillation: direction reversals with amplitude >= max(min
  /// bytes, frac * link peak) counted over a window; firing clears the
  /// window (built-in cooldown).
  static constexpr Duration kOscillationWindow = Duration::millis(250);
  static constexpr int kOscillationMinSwings = 12;
  static constexpr double kOscillationMinAmplitudeBytes = 64.0 * 1024.0;
  static constexpr double kOscillationAmplitudeFrac = 0.5;

  void on_event(const TraceEvent& ev, std::vector<TraceEvent>& derived);

  const std::map<std::int32_t, LinkState>& links() const { return links_; }
  std::uint64_t oscillation_events() const { return oscillation_events_; }

 private:
  std::map<std::int32_t, LinkState> links_;
  std::uint64_t oscillation_events_ = 0;
};

}  // namespace ccml
