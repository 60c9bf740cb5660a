#include "obs/analytics/analyzers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace ccml {

namespace {

TraceEvent anomaly(TraceEventKind kind, TimePoint t, double value,
                   double value2) {
  TraceEvent ev;
  ev.time = t;
  ev.kind = kind;
  ev.value = value;
  ev.value2 = value2;
  return ev;
}

/// The event's contended-link set: `links[0..link_count)` when present,
/// falling back to the single primary `link` (legacy traces, and replayed
/// events whose route had one bottleneck).  Returns the count written.
int contended_links(const TraceEvent& ev,
                    std::int32_t (&out)[kTraceMaxContendedLinks]) {
  if (ev.link_count > 0) {
    const int n = std::min<int>(ev.link_count, kTraceMaxContendedLinks);
    for (int i = 0; i < n; ++i) out[i] = ev.links[i].value;
    return n;
  }
  if (!ev.link.valid()) return 0;
  out[0] = ev.link.value;
  return 1;
}

}  // namespace

// --- IterationAnalyzer ------------------------------------------------------

double IterationAnalyzer::median_ms(const JobState& job) const {
  if (job.sorted_ms.empty()) return 0.0;
  // Lower median: deterministic and monotone under insertion.
  return job.sorted_ms[(job.sorted_ms.size() - 1) / 2];
}

void IterationAnalyzer::on_event(const TraceEvent& ev,
                                 std::vector<TraceEvent>& derived) {
  // Starvation sweep first: any event advances the clock, and a starving
  // job by definition produces no events of its own.
  for (auto& [id, js] : jobs_) {
    if (!js.active || js.starving || !js.saw_iteration) continue;
    if (static_cast<int>(js.sorted_ms.size()) <
        kStarvationMinIterations) {
      continue;
    }
    const double median = median_ms(js);
    const double gap_ms = (ev.time - js.last_iteration).to_millis();
    if (median > 0.0 && gap_ms > kStarvationFactor * median) {
      js.starving = true;
      ++starvation_events_;
      TraceEvent out = anomaly(TraceEventKind::kAnomalyStarvation, ev.time,
                               gap_ms, median);
      out.job = JobId{id};
      derived.push_back(out);
    }
  }

  switch (ev.kind) {
    case TraceEventKind::kIteration: {
      if (!ev.job.valid()) break;
      JobState& js = jobs_[ev.job.value];
      js.hist.record(ev.value);
      js.sum_ms += ev.value;
      if (!js.saw_iteration || ev.value < js.min_ms) js.min_ms = ev.value;
      js.last_iteration = ev.time;
      js.saw_iteration = true;
      js.starving = false;  // an iteration ends any starvation episode
      js.active = true;
      js.sorted_ms.insert(
          std::lower_bound(js.sorted_ms.begin(), js.sorted_ms.end(), ev.value),
          ev.value);
      break;
    }
    case TraceEventKind::kPhase:
      if (ev.job.valid() && ev.detail != nullptr &&
          std::strcmp(ev.detail, "done") == 0) {
        jobs_[ev.job.value].active = false;
      }
      break;
    case TraceEventKind::kJobAdmit:
      if (ev.job.valid()) jobs_[ev.job.value].active = true;
      break;
    case TraceEventKind::kJobDepart:
      if (ev.job.valid()) jobs_[ev.job.value].active = false;
      break;
    default:
      break;
  }
}

// --- InterleavingAnalyzer ---------------------------------------------------

double InterleavingAnalyzer::Overlap::score() const {
  if (busy_ns <= 0) return 1.0;
  return 1.0 - static_cast<double>(overlap_ns) / static_cast<double>(busy_ns);
}

void InterleavingAnalyzer::close_drift_window(
    TimePoint at, std::vector<TraceEvent>& derived) {
  const bool have_comm = win_busy_ns_ > 0;
  const double frac =
      have_comm ? static_cast<double>(win_overlap_ns_) /
                      static_cast<double>(win_busy_ns_)
                : 0.0;
  switch (drift_) {
    case DriftState::kUnarmed:
    case DriftState::kFired:
      if (have_comm && frac <= kDriftArmThreshold) {
        drift_ = DriftState::kArmed;
        armed_fraction_ = frac;
      }
      break;
    case DriftState::kArmed:
      if (have_comm && frac >= kDriftFireThreshold) {
        derived.push_back(anomaly(TraceEventKind::kAnomalyPhaseDrift, at,
                                  frac, armed_fraction_));
        ++drift_events_;
        drift_ = DriftState::kFired;
      }
      break;
  }
  win_busy_ns_ = 0;
  win_overlap_ns_ = 0;
}

void InterleavingAnalyzer::advance_global(TimePoint t,
                                          std::vector<TraceEvent>& derived) {
  if (!started_) {
    started_ = true;
    first_ = t;
    last_ = t;
    window_end_ = t + kDriftWindow;
    return;
  }
  if (t < last_) t = last_;  // defensive: never integrate backwards
  const auto integrate_to = [&](TimePoint upto) {
    const std::int64_t dt = (upto - last_).ns();
    if (dt > 0) {
      if (comm_jobs_ >= 1) {
        global_.busy_ns += dt;
        win_busy_ns_ += dt;
      }
      if (comm_jobs_ >= 2) {
        global_.overlap_ns += dt;
        win_overlap_ns_ += dt;
      }
      last_ = upto;
    }
  };
  while (t >= window_end_) {
    integrate_to(window_end_);
    last_ = window_end_;  // advance even across empty windows
    close_drift_window(window_end_, derived);
    window_end_ += kDriftWindow;
  }
  integrate_to(t);
  last_ = t;
}

void InterleavingAnalyzer::link_integrate(LinkState& ls, TimePoint t) {
  if (!ls.started) {
    ls.started = true;
    ls.last = t;
    return;
  }
  const std::int64_t dt = (t - ls.last).ns();
  if (dt > 0) {
    if (ls.jobs_active >= 1) ls.overlap.busy_ns += dt;
    if (ls.jobs_active >= 2) ls.overlap.overlap_ns += dt;
  }
  ls.last = t;
}

void InterleavingAnalyzer::link_flow_delta(std::int32_t link, std::int32_t job,
                                           int delta, TimePoint t) {
  LinkState& ls = links_[link];
  link_integrate(ls, t);
  int& cnt = ls.job_flows[job];
  const bool was_active = cnt > 0;
  cnt += delta;
  if (cnt <= 0) {
    ls.job_flows.erase(job);
    if (was_active) --ls.jobs_active;
  } else if (!was_active) {
    ++ls.jobs_active;
  }
}

void InterleavingAnalyzer::on_event(const TraceEvent& ev,
                                    std::vector<TraceEvent>& derived) {
  advance_global(ev.time, derived);

  switch (ev.kind) {
    case TraceEventKind::kPhase: {
      if (!ev.job.valid()) break;
      const bool comm =
          ev.detail != nullptr && std::strcmp(ev.detail, "comm") == 0;
      bool& cur = in_comm_[ev.job.value];
      if (cur != comm) {
        comm_jobs_ += comm ? 1 : -1;
        cur = comm;
      }
      break;
    }
    case TraceEventKind::kFlowStart: {
      if (!ev.link.valid() || !ev.job.valid()) break;
      FlowState& fs = flows_[ev.flow.value];
      fs.nlinks = static_cast<std::uint8_t>(contended_links(ev, fs.links));
      fs.job = ev.job.value;
      fs.active = true;
      for (int i = 0; i < fs.nlinks; ++i) {
        link_flow_delta(fs.links[i], fs.job, +1, ev.time);
      }
      break;
    }
    case TraceEventKind::kFlowFinish:
    case TraceEventKind::kFlowAbort: {
      const auto it = flows_.find(ev.flow.value);
      if (it == flows_.end()) break;
      if (it->second.active) {
        const FlowState& fs = it->second;
        for (int i = 0; i < fs.nlinks; ++i) {
          link_flow_delta(fs.links[i], fs.job, -1, ev.time);
        }
      }
      flows_.erase(it);
      break;
    }
    case TraceEventKind::kFlowPark: {
      const auto it = flows_.find(ev.flow.value);
      if (it == flows_.end() || !it->second.active) break;
      FlowState& fs = it->second;
      for (int i = 0; i < fs.nlinks; ++i) {
        link_flow_delta(fs.links[i], fs.job, -1, ev.time);
      }
      fs.active = false;
      break;
    }
    case TraceEventKind::kFlowUnpark: {
      const auto it = flows_.find(ev.flow.value);
      if (it == flows_.end() || it->second.active || !ev.link.valid()) break;
      FlowState& fs = it->second;
      // The healed (possibly rerouted) route's contended set.
      fs.nlinks = static_cast<std::uint8_t>(contended_links(ev, fs.links));
      fs.active = true;
      for (int i = 0; i < fs.nlinks; ++i) {
        link_flow_delta(fs.links[i], fs.job, +1, ev.time);
      }
      break;
    }
    case TraceEventKind::kFlowReroute: {
      const auto it = flows_.find(ev.flow.value);
      if (it == flows_.end() || !ev.link.valid()) break;
      FlowState& fs = it->second;
      std::int32_t next[kTraceMaxContendedLinks] = {};
      const int nnext = contended_links(ev, next);
      const bool same =
          nnext == fs.nlinks &&
          std::equal(next, next + nnext, fs.links);
      if (fs.active && !same) {
        for (int i = 0; i < fs.nlinks; ++i) {
          link_flow_delta(fs.links[i], fs.job, -1, ev.time);
        }
        for (int i = 0; i < nnext; ++i) {
          link_flow_delta(next[i], fs.job, +1, ev.time);
        }
      }
      std::copy(next, next + nnext, fs.links);
      fs.nlinks = static_cast<std::uint8_t>(nnext);
      break;
    }
    default:
      break;
  }
}

void InterleavingAnalyzer::finish(TimePoint end,
                                  std::vector<TraceEvent>& derived) {
  if (started_) advance_global(end, derived);
  for (auto& [id, ls] : links_) link_integrate(ls, end);
}

// --- FairnessAnalyzer -------------------------------------------------------

namespace {

double jain_index(const std::map<std::int32_t, double>& shares) {
  double sum = 0.0;
  double sum_sq = 0.0;
  int n = 0;
  for (const auto& [job, x] : shares) {
    if (x <= 0.0) continue;
    sum += x;
    sum_sq += x * x;
    ++n;
  }
  if (n < 2) return 1.0;
  return (sum * sum) / (static_cast<double>(n) * sum_sq);
}

int active_jobs(const std::map<std::int32_t, double>& shares) {
  int n = 0;
  for (const auto& [job, x] : shares) {
    if (x > 0.0) ++n;
  }
  return n;
}

}  // namespace

double FairnessAnalyzer::jain_overall() const { return jain_index(job_total_); }

void FairnessAnalyzer::close_window(TimePoint at,
                                    std::vector<TraceEvent>& derived) {
  if (active_jobs(job_window_) >= 2) {
    const double jain = jain_index(job_window_);
    ++windows_;
    if (jain < jain_min_) jain_min_ = jain;
  }
  job_window_.clear();

  for (auto& [id, ls] : links_) {
    if (ls.win_goodput_n == 0) continue;
    const double cur =
        ls.win_goodput_sum / static_cast<double>(ls.win_goodput_n);
    const double queue_mean =
        ls.win_queue_n != 0
            ? ls.win_queue_sum / static_cast<double>(ls.win_queue_n)
            : 0.0;
    const double floor = kCollapseRatio * ls.peak_window_bps;
    if (ls.peak_window_bps > 0.0 && cur < floor &&
        queue_mean >= kCollapseMinQueueBytes) {
      if (!ls.collapsed) {
        ls.collapsed = true;
        ++collapse_events_;
        TraceEvent out = anomaly(TraceEventKind::kAnomalyCongestionCollapse,
                                 at, cur, ls.peak_window_bps);
        out.link = LinkId{id};
        derived.push_back(out);
      }
    } else if (cur >= floor) {
      ls.collapsed = false;
    }
    if (cur > ls.peak_window_bps) ls.peak_window_bps = cur;
    ls.win_goodput_sum = 0.0;
    ls.win_goodput_n = 0;
    ls.win_queue_sum = 0.0;
    ls.win_queue_n = 0;
  }
}

void FairnessAnalyzer::on_event(const TraceEvent& ev,
                                std::vector<TraceEvent>& derived) {
  if (!started_) {
    started_ = true;
    window_end_ = ev.time + kFairnessWindow;
  }
  while (ev.time >= window_end_) {
    close_window(window_end_, derived);
    window_end_ += kFairnessWindow;
  }
  switch (ev.kind) {
    case TraceEventKind::kLinkThroughput:
      if (ev.job.valid()) {
        job_window_[ev.job.value] += ev.value;
        job_total_[ev.job.value] += ev.value;
      } else if (ev.link.valid()) {
        LinkState& ls = links_[ev.link.value];
        ls.goodput_sum_bps += ev.value;
        ++ls.goodput_samples;
        ls.win_goodput_sum += ev.value;
        ++ls.win_goodput_n;
      }
      break;
    case TraceEventKind::kLinkQueue:
      if (ev.link.valid()) {
        LinkState& ls = links_[ev.link.value];
        ls.win_queue_sum += ev.value;
        ++ls.win_queue_n;
      }
      break;
    default:
      break;
  }
}

void FairnessAnalyzer::finish(TimePoint end,
                              std::vector<TraceEvent>& derived) {
  if (!started_) return;
  // Close every full window the trace covers; a trailing partial window is
  // discarded (identically online and offline).
  while (end >= window_end_) {
    close_window(window_end_, derived);
    window_end_ += kFairnessWindow;
  }
}

// --- QueueAnalyzer ----------------------------------------------------------

void QueueAnalyzer::on_event(const TraceEvent& ev,
                             std::vector<TraceEvent>& derived) {
  if (ev.kind != TraceEventKind::kLinkQueue || !ev.link.valid()) return;
  LinkState& ls = links_[ev.link.value];
  const double v = ev.value;
  ls.hist.record(v);
  if (v > ls.peak_bytes) ls.peak_bytes = v;

  if (!ls.have_prev) {
    ls.have_prev = true;
    ls.prev = v;
    ls.last_extreme = v;
    return;
  }
  const double d = v - ls.prev;
  const int dir = d > 0.0 ? 1 : (d < 0.0 ? -1 : 0);
  if (dir != 0) {
    if (ls.direction != 0 && dir != ls.direction) {
      // `prev` was a local extremum; measure the excursion since the last.
      const double amplitude = std::fabs(ls.prev - ls.last_extreme);
      const double threshold =
          std::max(kOscillationMinAmplitudeBytes,
                   kOscillationAmplitudeFrac * ls.peak_bytes);
      if (amplitude >= threshold) {
        ls.swings_ns.push_back(ev.time.ns());
        const std::int64_t horizon = ev.time.ns() - kOscillationWindow.ns();
        while (!ls.swings_ns.empty() && ls.swings_ns.front() < horizon) {
          ls.swings_ns.pop_front();
        }
        if (static_cast<int>(ls.swings_ns.size()) >= kOscillationMinSwings) {
          TraceEvent out =
              anomaly(TraceEventKind::kAnomalyQueueOscillation, ev.time,
                      static_cast<double>(ls.swings_ns.size()), amplitude);
          out.link = ev.link;
          derived.push_back(out);
          ++oscillation_events_;
          ls.swings_ns.clear();  // built-in cooldown: restart the count
        }
      }
      ls.last_extreme = ls.prev;
    }
    ls.direction = dir;
  }
  ls.prev = v;
}

}  // namespace ccml
