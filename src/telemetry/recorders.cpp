#include "telemetry/recorders.h"

#include <algorithm>
#include <stdexcept>

namespace ccml {

// --- TraceThroughputSampler ------------------------------------------------

TraceThroughputSampler::TraceThroughputSampler(TraceBus& bus, Duration cadence,
                                               std::vector<LinkId> watch,
                                               bool quiescence_ok)
    : bus_(bus), cadence_(cadence), quiescence_ok_(quiescence_ok) {
  if (!cadence.is_positive()) {
    throw std::invalid_argument(
        "TraceThroughputSampler: sample cadence must be positive");
  }
  // Seed the watch list so idle links report (zero) samples from the start.
  for (const LinkId l : watch) sample_link(l.value);
}

void TraceThroughputSampler::sample_link(std::int32_t link) {
  const auto index = static_cast<std::size_t>(link);
  if (index >= links_.size()) links_.resize(index + 1);
  links_[index].sampled = true;
}

double& TraceThroughputSampler::job_bits(LinkAcc& acc, std::int32_t job) {
  const auto pos = std::lower_bound(
      acc.jobs.begin(), acc.jobs.end(), job,
      [](const JobBits& j, std::int32_t v) { return j.job < v; });
  if (pos != acc.jobs.end() && pos->job == job) return pos->bits;
  return acc.jobs.insert(pos, JobBits{job, 0.0})->bits;
}

void TraceThroughputSampler::on_step(const Network& net, TimePoint now) {
  const Duration dt = net.config().step;
  const double dt_s = dt.to_seconds();
  const std::span<const double> rates = net.rates_bps();
  if (links_.size() < net.topology().link_count()) {
    links_.resize(net.topology().link_count());
  }
  for (const LinkId lid : net.links_in_use()) {
    LinkAcc& acc = links_[static_cast<std::size_t>(lid.value)];
    acc.sampled = true;
    for (const std::uint32_t slot : net.flow_slots_on_link(lid)) {
      const double bits = rates[slot] * dt_s;
      acc.total_bits += bits;
      job_bits(acc, net.flow_at(slot).spec.job.value) += bits;
    }
  }
  accumulated_ += dt;
  if (accumulated_ >= cadence_) emit_samples(net, now, false);
}

void TraceThroughputSampler::on_idle_gap(const Network& net, TimePoint from,
                                         TimePoint to) {
  // Nothing moved during the gap, so each skipped step would have added
  // exactly zero bits; replay the emission schedule in closed form instead
  // of iterating the steps.
  const Duration dt = net.config().step;
  std::int64_t steps = (to - from).ns() / dt.ns();
  TimePoint t = from;
  while (steps > 0) {
    std::int64_t need =
        ((cadence_ - accumulated_).ns() + dt.ns() - 1) / dt.ns();
    if (need < 1) need = 1;
    if (need > steps) {
      accumulated_ += dt * steps;
      return;
    }
    accumulated_ += dt * need;
    t = t + dt * need;
    emit_samples(net, t, /*idle=*/true);
    steps -= need;
  }
}

void TraceThroughputSampler::emit_samples(const Network& net, TimePoint t,
                                          bool idle) {
  const double secs = accumulated_.to_seconds();
  for (std::size_t i = 0; i < links_.size(); ++i) {
    LinkAcc& acc = links_[i];
    if (!acc.sampled) continue;
    const auto lv = static_cast<std::int32_t>(i);
    const LinkId lid{lv};
    TraceEvent ev;
    ev.time = t;
    ev.kind = TraceEventKind::kLinkThroughput;
    ev.link = lid;
    ev.value = secs > 0.0 ? acc.total_bits / secs : 0.0;
    bus_.emit(ev);
    acc.total_bits = 0.0;
    // Keep keys so every batch reports every job (zeros included).
    for (JobBits& j : acc.jobs) {
      TraceEvent je = ev;
      je.job = JobId{j.job};
      je.value = secs > 0.0 ? j.bits / secs : 0.0;
      bus_.emit(je);
      j.bits = 0.0;
    }
    TraceEvent qe;
    qe.time = t;
    qe.kind = TraceEventKind::kLinkQueue;
    qe.link = lid;
    // During an idle gap the policy is quiescent, i.e. queues are drained.
    qe.value = idle ? 0.0 : net.policy().link_queue(lid).count();
    bus_.emit(qe);
    if (acc.queue_gauge == nullptr) {
      acc.queue_gauge =
          &bus_.gauge("net.link" + std::to_string(lv) + ".queue_bytes");
    }
    acc.queue_gauge->set(qe.value);
  }
  accumulated_ = Duration::zero();
}

std::unique_ptr<TraceThroughputSampler> bind_trace_bus(TraceBus& bus,
                                                       Network& net) {
  net.set_trace_bus(&bus);
  const Duration cadence = bus.sample_cadence();
  if (!cadence.is_positive()) return nullptr;
  auto sampler = std::make_unique<TraceThroughputSampler>(
      bus, cadence, bus.sampled_links(), bus.sinks_quiescence_compatible());
  net.add_observer(*sampler);
  return sampler;
}

// --- LinkThroughputRecorder ------------------------------------------------

LinkThroughputRecorder::LinkThroughputRecorder(LinkId link, Duration interval)
    : link_(link), interval_(interval) {
  if (!interval.is_positive()) {
    throw std::invalid_argument(
        "LinkThroughputRecorder: interval must be positive");
  }
}

void LinkThroughputRecorder::attach(TraceBus& bus) {
  if (attached_) {
    throw std::logic_error(
        "LinkThroughputRecorder::attach: recorder is already attached to a "
        "trace bus");
  }
  attached_ = true;
  bus.add_sink(*this);
}

void LinkThroughputRecorder::on_event(const TraceEvent& ev) {
  if (ev.kind != TraceEventKind::kLinkThroughput || ev.link != link_) return;
  if (!ev.job.valid()) {
    // Link total: opens a new sample; per-job shares follow at the same
    // timestamp.
    Sample s;
    s.time = ev.time;
    s.total = Rate::bps(ev.value);
    samples_.push_back(std::move(s));
    return;
  }
  if (samples_.empty() || samples_.back().time != ev.time) return;
  samples_.back().per_job[ev.job] = Rate::bps(ev.value);
  const auto pos =
      std::lower_bound(jobs_seen_.begin(), jobs_seen_.end(), ev.job);
  if (pos == jobs_seen_.end() || *pos != ev.job) jobs_seen_.insert(pos, ev.job);
}

std::vector<JobId> LinkThroughputRecorder::jobs_seen() const {
  return jobs_seen_;
}

}  // namespace ccml
