#include "obs/analytics/engine.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <set>

namespace ccml {

bool is_analytics_derived(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAnomalyPhaseDrift:
    case TraceEventKind::kAnomalyQueueOscillation:
    case TraceEventKind::kAnomalyStarvation:
    case TraceEventKind::kAnomalyCongestionCollapse:
    case TraceEventKind::kHistogramSummary:
      return true;
    default:
      return false;
  }
}

AnalyticsEngine::AnalyticsEngine(AnalyticsConfig config) : config_(config) {}

void AnalyticsEngine::set_output(TraceSink* output, bool forward_raw) {
  output_ = output;
  forward_raw_ = forward_raw;
}

Duration AnalyticsEngine::sample_cadence() const {
  // The engine's fairness/queue analytics need the integrated link series;
  // negotiate the minimum positive cadence with the chained output.
  Duration mine = config_.sample_cadence;
  if (output_ != nullptr) {
    const Duration theirs = output_->sample_cadence();
    if (theirs.is_positive() && (!mine.is_positive() || theirs < mine)) {
      mine = theirs;
    }
  }
  return mine;
}

std::vector<LinkId> AnalyticsEngine::sampled_links() const {
  return output_ != nullptr ? output_->sampled_links()
                            : std::vector<LinkId>{};
}

bool AnalyticsEngine::quiescence_compatible() const {
  return output_ == nullptr || output_->quiescence_compatible();
}

void AnalyticsEngine::attached(TraceBus& bus) {
  if (output_ != nullptr) output_->attached(bus);
}

void AnalyticsEngine::emit_derived() {
  for (const TraceEvent& d : derived_buf_) {
    anomalies_.push_back(d);
    if (output_ != nullptr) output_->on_event(d);
  }
  derived_buf_.clear();
}

void AnalyticsEngine::on_event(const TraceEvent& ev) {
  if (output_ != nullptr && forward_raw_) output_->on_event(ev);
  if (is_analytics_derived(ev.kind)) return;  // re-derive, never double-count

  ++events_;
  if (!saw_first_) {
    saw_first_ = true;
    first_ = ev.time;
    epochs_.push_back(Epoch{ev.time, "start", -1, 0, 0.0, 0});
  }
  if (ev.time > last_) last_ = ev.time;

  derived_buf_.clear();
  iter_.on_event(ev, derived_buf_);
  inter_.on_event(ev, derived_buf_);
  fair_.on_event(ev, derived_buf_);
  queue_.on_event(ev, derived_buf_);
  fold_meta(ev);
  emit_derived();
}

void AnalyticsEngine::fold_meta(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kTraceDrops:
      drops_ += static_cast<std::uint64_t>(ev.value);
      break;
    case TraceEventKind::kSoloBaseline:
      if (ev.job.valid() && ev.value > 0.0) {
        solo_ms_[ev.job.value] = ev.value;
      }
      break;
    case TraceEventKind::kSolve:
      ++solves_;
      last_solve_compatible_ = ev.value;
      last_solve_violation_ = ev.value2;
      break;
    case TraceEventKind::kIteration:
      if (!epochs_.empty()) {
        ++epochs_.back().iterations;
        epochs_.back().iteration_sum_ms += ev.value;
      }
      break;
    case TraceEventKind::kJobAdmit:
      epochs_.push_back(
          Epoch{ev.time, "job-admit", ev.job.value, 0, 0.0, 0});
      break;
    case TraceEventKind::kJobDepart:
      epochs_.push_back(
          Epoch{ev.time, "job-depart", ev.job.value, 0, 0.0, 0});
      break;
    case TraceEventKind::kJobReject:
      if (!epochs_.empty()) ++epochs_.back().rejects;
      break;
    default:
      break;
  }
}

void AnalyticsEngine::flush() {
  if (!flushed_) {
    flushed_ = true;
    if (saw_first_) {
      derived_buf_.clear();
      inter_.finish(last_, derived_buf_);
      fair_.finish(last_, derived_buf_);
      emit_derived();
      if (output_ != nullptr) {
        // Flush-time digests, in id order: one summary per job iteration
        // histogram and per link queue histogram.
        for (const auto& [id, js] : iter_.jobs()) {
          if (js.hist.count() == 0) continue;
          TraceEvent ev;
          ev.time = last_;
          ev.kind = TraceEventKind::kHistogramSummary;
          ev.job = JobId{id};
          ev.value = js.hist.percentile(99.0);
          ev.value2 = static_cast<double>(js.hist.count());
          ev.detail = "iteration_ms";
          output_->on_event(ev);
        }
        for (const auto& [id, ls] : queue_.links()) {
          if (ls.hist.count() == 0) continue;
          TraceEvent ev;
          ev.time = last_;
          ev.kind = TraceEventKind::kHistogramSummary;
          ev.link = LinkId{id};
          ev.value = ls.hist.percentile(99.0);
          ev.value2 = static_cast<double>(ls.hist.count());
          ev.detail = "queue_bytes";
          output_->on_event(ev);
        }
      }
    }
  }
  if (output_ != nullptr) output_->flush();
}

// --- Report rendering -------------------------------------------------------

namespace {

[[gnu::format(printf, 2, 3)]] void put(std::string& out, const char* fmt,
                                       ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

struct SloRow {
  const char* name;
  double threshold;
  double actual;
  bool pass;
  /// False when the run measured nothing to check (no job finished an
  /// iteration, no fairness window closed): the row fails and reports its
  /// actual as null.
  bool sampled = true;
};

}  // namespace

RunHealthReport AnalyticsEngine::report(const SloConfig& slo) const {
  const std::int64_t elapsed_ns = saw_first_ ? (last_ - first_).ns() : 0;
  const double elapsed = static_cast<double>(elapsed_ns);

  std::string j;
  j.reserve(4096);
  j += "{\n  \"schema\": \"ccml.run_health.v1\",\n";
  put(j, "  \"duration_ms\": %.6g,\n",
      saw_first_ ? (last_ - first_).to_millis() : 0.0);
  put(j, "  \"events\": %" PRIu64 ",\n", events_);
  put(j, "  \"trace_drops\": %" PRIu64 ",\n", drops_);
  put(j, "  \"lower_bound\": %s,\n", drops_ > 0 ? "true" : "false");

  // Jobs: iteration-time distribution and slowdown-vs-dedicated.
  double slowdown_sum = 0.0;
  int slowdown_n = 0;
  j += "  \"jobs\": [";
  bool first_row = true;
  for (const auto& [id, js] : iter_.jobs()) {
    if (js.hist.count() == 0) continue;
    const double mean = js.sum_ms / static_cast<double>(js.hist.count());
    const auto solo_it = solo_ms_.find(id);
    const double solo = solo_it != solo_ms_.end() ? solo_it->second : js.min_ms;
    const double slowdown = solo > 0.0 ? mean / solo : 0.0;
    if (slowdown > 0.0) {
      slowdown_sum += slowdown;
      ++slowdown_n;
    }
    put(j, "%s\n    {\"id\": %d, \"iterations\": %" PRIu64
           ", \"p50_ms\": %.6g, \"p90_ms\": %.6g, \"p99_ms\": %.6g, "
           "\"max_ms\": %.6g, \"mean_ms\": %.6g, \"solo_ms\": %.6g, "
           "\"slowdown\": %.6g}",
        first_row ? "" : ",", id, js.hist.count(), js.hist.percentile(50.0),
        js.hist.percentile(90.0), js.hist.percentile(99.0), js.hist.max(),
        mean, solo, slowdown);
    first_row = false;
  }
  j += first_row ? "],\n" : "\n  ],\n";
  const double mean_slowdown =
      slowdown_n > 0 ? slowdown_sum / slowdown_n : 0.0;

  // Links: union of everything the per-link analyzers saw.
  std::set<std::int32_t> link_ids;
  for (const auto& [id, ls] : queue_.links()) link_ids.insert(id);
  for (const auto& [id, ov] : inter_.per_link()) link_ids.insert(id);
  for (const auto& [id, ls] : fair_.links()) link_ids.insert(id);
  j += "  \"links\": [";
  first_row = true;
  for (const std::int32_t id : link_ids) {
    double q50 = 0.0, q99 = 0.0, qmax = 0.0;
    if (const auto it = queue_.links().find(id); it != queue_.links().end()) {
      q50 = it->second.hist.percentile(50.0);
      q99 = it->second.hist.percentile(99.0);
      qmax = it->second.hist.max();
    }
    double score = 1.0, overlap_frac = 0.0;
    if (const auto it = inter_.per_link().find(id);
        it != inter_.per_link().end()) {
      score = it->second.overlap.score();
      overlap_frac =
          elapsed > 0.0
              ? static_cast<double>(it->second.overlap.overlap_ns) / elapsed
              : 0.0;
    }
    double goodput_gbps = 0.0;
    if (const auto it = fair_.links().find(id); it != fair_.links().end()) {
      if (it->second.goodput_samples > 0) {
        goodput_gbps = it->second.goodput_sum_bps /
                       static_cast<double>(it->second.goodput_samples) / 1e9;
      }
    }
    put(j, "%s\n    {\"id\": %d, \"queue_p50_bytes\": %.6g, "
           "\"queue_p99_bytes\": %.6g, \"queue_max_bytes\": %.6g, "
           "\"interleaving_score\": %.6g, \"overlap_fraction\": %.6g, "
           "\"mean_goodput_gbps\": %.6g}",
        first_row ? "" : ",", id, q50, q99, qmax, score, overlap_frac,
        goodput_gbps);
    first_row = false;
  }
  j += first_row ? "],\n" : "\n  ],\n";

  // Global interleaving vs the solver's prediction.
  const auto& g = inter_.global();
  const double overlap_fraction =
      elapsed > 0.0 ? static_cast<double>(g.overlap_ns) / elapsed : 0.0;
  const double busy_fraction =
      elapsed > 0.0 ? static_cast<double>(g.busy_ns) / elapsed : 0.0;
  put(j, "  \"interleaving\": {\"score\": %.6g, \"overlap_fraction\": %.6g, "
         "\"busy_fraction\": %.6g, \"solves\": %" PRIu64
         ", \"predicted_compatible\": %.6g, \"predicted_violation\": %.6g},\n",
      g.score(), overlap_fraction, busy_fraction, solves_,
      last_solve_compatible_, last_solve_violation_);

  put(j, "  \"fairness\": {\"jain_overall\": %.6g, \"jain_min_window\": %.6g, "
         "\"windows\": %" PRIu64 "},\n",
      fair_.jain_overall(), fair_.jain_min_window(), fair_.windows());

  // Anomalies, in derivation order.
  j += "  \"anomalies\": [";
  first_row = true;
  std::uint64_t counts[4] = {0, 0, 0, 0};
  for (const TraceEvent& a : anomalies_) {
    switch (a.kind) {
      case TraceEventKind::kAnomalyPhaseDrift: ++counts[0]; break;
      case TraceEventKind::kAnomalyQueueOscillation: ++counts[1]; break;
      case TraceEventKind::kAnomalyStarvation: ++counts[2]; break;
      case TraceEventKind::kAnomalyCongestionCollapse: ++counts[3]; break;
      default: break;
    }
    put(j, "%s\n    {\"t_ms\": %.6g, \"kind\": \"%s\", \"job\": %d, "
           "\"link\": %d, \"value\": %.6g, \"value2\": %.6g}",
        first_row ? "" : ",", a.time.to_millis(), to_string(a.kind),
        a.job.value, a.link.value, a.value, a.value2);
    first_row = false;
  }
  j += first_row ? "],\n" : "\n  ],\n";
  const std::uint64_t total_anomalies =
      counts[0] + counts[1] + counts[2] + counts[3];
  put(j, "  \"anomaly_counts\": {\"phase_drift\": %" PRIu64
         ", \"queue_oscillation\": %" PRIu64 ", \"starvation\": %" PRIu64
         ", \"congestion_collapse\": %" PRIu64 ", \"total\": %" PRIu64
         "},\n",
      counts[0], counts[1], counts[2], counts[3], total_anomalies);

  // Admission epochs.
  j += "  \"epochs\": [";
  first_row = true;
  for (std::size_t i = 0; i < epochs_.size(); ++i) {
    const Epoch& e = epochs_[i];
    const TimePoint end = i + 1 < epochs_.size() ? epochs_[i + 1].start : last_;
    const double mean_iter =
        e.iterations > 0
            ? e.iteration_sum_ms / static_cast<double>(e.iterations)
            : 0.0;
    put(j, "%s\n    {\"start_ms\": %.6g, \"end_ms\": %.6g, \"trigger\": "
           "\"%s\", \"job\": %d, \"iterations\": %" PRIu64
           ", \"mean_iteration_ms\": %.6g, \"rejects\": %" PRIu64 "}",
        first_row ? "" : ",", e.start.to_millis(), end.to_millis(), e.trigger,
        e.job, e.iterations, mean_iter, e.rejects);
    first_row = false;
  }
  j += first_row ? "],\n" : "\n  ],\n";

  // SLO evaluation.
  std::vector<SloRow> rows;
  if (slo.min_fairness >= 0.0) {
    const bool sampled = fair_.windows() > 0;
    const double actual = fair_.jain_min_window();
    rows.push_back({"min_fairness", slo.min_fairness, actual,
                    sampled && actual >= slo.min_fairness, sampled});
  }
  if (slo.max_mean_slowdown >= 0.0) {
    const bool sampled = slowdown_n > 0;
    rows.push_back({"max_mean_slowdown", slo.max_mean_slowdown, mean_slowdown,
                    sampled && mean_slowdown <= slo.max_mean_slowdown,
                    sampled});
  }
  if (slo.max_p99_iteration_ms >= 0.0) {
    double worst_p99 = 0.0;
    bool sampled = false;
    for (const auto& [id, js] : iter_.jobs()) {
      if (js.hist.count() == 0) continue;
      sampled = true;
      const double p99 = js.hist.percentile(99.0);
      if (p99 > worst_p99) worst_p99 = p99;
    }
    rows.push_back({"max_p99_iteration_ms", slo.max_p99_iteration_ms,
                    worst_p99,
                    sampled && worst_p99 <= slo.max_p99_iteration_ms,
                    sampled});
  }
  if (slo.max_anomalies >= 0) {
    rows.push_back({"max_anomalies", static_cast<double>(slo.max_anomalies),
                    static_cast<double>(total_anomalies),
                    total_anomalies <=
                        static_cast<std::uint64_t>(slo.max_anomalies)});
  }
  if (slo.require_anomaly) {
    rows.push_back({"require_anomaly", 1.0,
                    static_cast<double>(total_anomalies),
                    total_anomalies >= 1});
  }
  bool pass = true;
  j += "  \"slo\": [";
  first_row = true;
  for (const SloRow& r : rows) {
    pass = pass && r.pass;
    char actual[32] = "null";
    if (r.sampled) std::snprintf(actual, sizeof(actual), "%.6g", r.actual);
    put(j, "%s\n    {\"name\": \"%s\", \"threshold\": %.6g, \"actual\": "
           "%s, \"pass\": %s}",
        first_row ? "" : ",", r.name, r.threshold, actual,
        r.pass ? "true" : "false");
    first_row = false;
  }
  j += first_row ? "],\n" : "\n  ],\n";
  put(j, "  \"pass\": %s\n}\n", pass ? "true" : "false");

  return RunHealthReport{std::move(j), pass};
}

}  // namespace ccml
