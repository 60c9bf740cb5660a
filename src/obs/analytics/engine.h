// AnalyticsEngine: one TraceSink that folds the event stream through every
// streaming analyzer (analyzers.h) and renders a structured run-health
// report with pass/fail SLO checks.
//
// The engine is the single code path for both delivery modes:
//
//   online   bus.add_sink(engine); engine.set_output(&jsonl_sink);
//            — the engine is the bus's sink and *chains* to a downstream
//            sink, forwarding each raw event and then any events it derives
//            (anomaly.*, flush-time histogram-summary) immediately after
//            their trigger.  Chaining instead of re-emitting on the bus
//            keeps the async SPSC path single-producer and the derived
//            ordering deterministic.
//
//   offline  ccml_sim analyze replays a JSONL trace through trace_reader.h
//            into the same on_event; derived kinds found in an annotated
//            input are skipped (re-derived, never double-counted), so
//            analyze(trace(run)) == online report, byte for byte — locked
//            in by tests/obs_analytics_test.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/analytics/analyzers.h"
#include "obs/trace_bus.h"

namespace ccml {

/// Pass/fail gates evaluated into the report's "slo" section.  Negative
/// thresholds disable a check.
struct SloConfig {
  double min_fairness = -1.0;          ///< floor on windowed Jain minimum
  double max_mean_slowdown = -1.0;     ///< ceiling on mean slowdown-vs-solo
  double max_p99_iteration_ms = -1.0;  ///< ceiling on any job's p99
  int max_anomalies = -1;              ///< ceiling on total anomaly events
  bool require_anomaly = false;        ///< fault runs must detect something
};

struct RunHealthReport {
  std::string json;  ///< schema "ccml.run_health.v1"
  bool pass = true;  ///< conjunction of every enabled SLO check
};

class AnalyticsEngine final : public TraceSink {
 public:
  explicit AnalyticsEngine(AnalyticsConfig config = {});

  /// Chains a downstream sink: each raw event is forwarded (when
  /// `forward_raw`), followed by any derived events, and flush() cascades.
  /// The output sink must not also be subscribed to the bus directly.
  void set_output(TraceSink* output, bool forward_raw = true);

  // TraceSink -----------------------------------------------------------
  void on_event(const TraceEvent& ev) override;
  Duration sample_cadence() const override;
  std::vector<LinkId> sampled_links() const override;
  bool quiescence_compatible() const override;
  void attached(TraceBus& bus) override;
  /// Closes open windows/intervals, emits histogram-summary events to the
  /// chained output, and cascades flush.  Idempotent.
  void flush() override;

  /// Renders the run-health report; call after flush().
  RunHealthReport report(const SloConfig& slo = {}) const;

  /// Registers a dedicated-run iteration-time baseline for `job`'s
  /// slowdown-vs-dedicated section.  In-repo harnesses emit "solo-baseline"
  /// trace events instead (so serialized traces stay self-contained); this
  /// is the programmatic equivalent for embedders.  Jobs without a baseline
  /// fall back to their own fastest observed iteration.
  void set_solo_baseline(JobId job, double solo_ms) {
    if (job.valid() && solo_ms > 0.0) solo_ms_[job.value] = solo_ms;
  }

  // Introspection (tests, CLI) ------------------------------------------
  const IterationAnalyzer& iterations() const { return iter_; }
  const InterleavingAnalyzer& interleaving() const { return inter_; }
  const FairnessAnalyzer& fairness() const { return fair_; }
  const QueueAnalyzer& queues() const { return queue_; }
  const std::vector<TraceEvent>& anomalies() const { return anomalies_; }
  std::uint64_t events_processed() const { return events_; }
  std::uint64_t trace_drops() const { return drops_; }

 private:
  void fold_meta(const TraceEvent& ev);
  void emit_derived();

  AnalyticsConfig config_;
  /// Dedicated-run iteration-time baselines (job id -> ms) for the
  /// slowdown-vs-dedicated section; jobs without an entry fall back to
  /// their own fastest observed iteration.
  std::map<std::int32_t, double> solo_ms_;
  TraceSink* output_ = nullptr;
  bool forward_raw_ = true;

  IterationAnalyzer iter_;
  InterleavingAnalyzer inter_;
  FairnessAnalyzer fair_;
  QueueAnalyzer queue_;

  std::vector<TraceEvent> derived_buf_;
  std::vector<TraceEvent> anomalies_;

  // Stream metadata.
  std::uint64_t events_ = 0;
  std::uint64_t drops_ = 0;
  TimePoint first_, last_;
  bool saw_first_ = false;
  bool flushed_ = false;

  // Solver predictions (kSolve) for the measured-vs-predicted section.
  std::uint64_t solves_ = 0;
  double last_solve_compatible_ = -1.0;
  double last_solve_violation_ = -1.0;

  // Admission epochs (kJobAdmit / kJobDepart boundaries).
  struct Epoch {
    TimePoint start;
    const char* trigger;  ///< "start" | "job-admit" | "job-depart"
    std::int32_t job = -1;
    std::uint64_t iterations = 0;
    double iteration_sum_ms = 0.0;
    std::uint64_t rejects = 0;
  };
  std::vector<Epoch> epochs_;
};

/// True for kinds the engine itself derives (anomaly.*, histogram-summary):
/// skipped on input so replaying an annotated trace re-derives them.
bool is_analytics_derived(TraceEventKind kind);

}  // namespace ccml
