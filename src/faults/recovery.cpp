#include "faults/recovery.h"

#include <algorithm>
#include <cstdio>

namespace ccml {

namespace {

double median_ms(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    m = (m + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
  }
  return m;
}

JobRecovery analyze(const JobTrace& trace, TimePoint window_start,
                    TimePoint window_end, double tolerance) {
  JobRecovery r;
  r.job = trace.name;
  r.departed = trace.departed;
  const std::size_t n = trace.durations.size();
  if (n == 0) return r;

  // Baseline: median post-warmup iteration that finished before the fault.
  std::vector<double> pre;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < trace.warmup || i >= trace.starts.size()) continue;
    if (trace.starts[i] + trace.durations[i] <= window_start) {
      pre.push_back(trace.durations[i].to_millis());
    }
  }
  if (pre.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      pre.push_back(trace.durations[i].to_millis());
    }
  }
  r.baseline_ms = median_ms(std::move(pre));
  const double limit = r.baseline_ms * (1.0 + tolerance);

  // Stable tail: longest suffix of within-tolerance iterations.
  std::size_t tail = n;
  while (tail > 0 && trace.durations[tail - 1].to_millis() <= limit) --tail;
  r.converged = tail < n;
  r.converged_after = tail;
  if (r.converged && tail < trace.starts.size()) {
    const Duration gap = trace.starts[tail] - window_end;
    r.reconverge_ms = std::max(0.0, gap.to_millis());
  }

  // Disruption accounting.
  TimePoint last_end = window_end;
  for (std::size_t i = 0; i < n && i < trace.starts.size(); ++i) {
    const TimePoint end = trace.starts[i] + trace.durations[i];
    if (end <= window_start) continue;
    if (trace.durations[i].to_millis() > limit) {
      ++r.iterations_disrupted;
      if (end > last_end) last_end = end;
    }
  }
  // Goodput lost over the disruption span (fault window plus the recovery
  // tail): what the job would have shipped at baseline cadence minus what it
  // made, each iteration counted by the share of its duration inside the
  // span.  Summed as the span's uncovered time at baseline cadence plus each
  // iteration's covered time at the difference between the baseline rate
  // and its own, so an iteration at baseline cadence adds exactly zero.
  const TimePoint span_end = last_end;
  const Duration span = span_end - window_start;
  if (span.is_positive() && r.baseline_ms > 0.0) {
    Duration covered = Duration::zero();
    double behind = 0.0;  // iterations short of baseline cadence
    for (std::size_t i = 0; i < n && i < trace.starts.size(); ++i) {
      const TimePoint start = trace.starts[i];
      const TimePoint end = start + trace.durations[i];
      const Duration in =
          std::min(end, span_end) - std::max(start, window_start);
      if (!in.is_positive()) continue;
      covered = covered + in;
      behind += in.to_millis() / r.baseline_ms -
                in.to_millis() / trace.durations[i].to_millis();
    }
    behind += (span - covered).to_millis() / r.baseline_ms;
    r.goodput_lost_mb = std::max(0.0, behind) * trace.comm_mb_per_iter;
  }
  return r;
}

}  // namespace

bool RecoveryReport::all_converged() const {
  for (const JobRecovery& j : jobs) {
    if (!j.departed && !j.converged) return false;
  }
  return true;
}

double RecoveryReport::max_reconverge_ms() const {
  double worst = 0.0;
  for (const JobRecovery& j : jobs) {
    worst = std::max(worst, j.reconverge_ms);
  }
  return worst;
}

double RecoveryReport::total_goodput_lost_mb() const {
  double total = 0.0;
  for (const JobRecovery& j : jobs) total += j.goodput_lost_mb;
  return total;
}

std::string RecoveryReport::summary() const {
  char line[256];
  std::snprintf(line, sizeof(line), "recovery (fault window %.1f ms):\n",
                (window_end - window_start).to_millis());
  std::string out = line;
  for (const JobRecovery& j : jobs) {
    if (j.departed) {
      std::snprintf(line, sizeof(line), "  %-12s departed\n", j.job.c_str());
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-12s %s  baseline %.2f ms  reconverge %.2f ms  "
                    "disrupted %zu  lost %.1f MB\n",
                    j.job.c_str(), j.converged ? "converged " : "DIVERGED  ",
                    j.baseline_ms, j.reconverge_ms, j.iterations_disrupted,
                    j.goodput_lost_mb);
    }
    out += line;
  }
  return out;
}

RecoveryReport compute_recovery(const FaultPlan& plan,
                                std::span<const JobTrace> traces,
                                double tolerance) {
  RecoveryReport report;
  report.window_start = plan.first_event();
  report.window_end = plan.last_event();
  report.jobs.reserve(traces.size());
  for (const JobTrace& t : traces) {
    report.jobs.push_back(
        analyze(t, report.window_start, report.window_end, tolerance));
  }
  return report;
}

}  // namespace ccml
