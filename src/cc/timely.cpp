#include "cc/timely.h"

#include <algorithm>
#include <cassert>

namespace ccml {

TimelyPolicy::TimelyPolicy(TimelyConfig config)
    : RateMachine(config.min_rate, config.base_rtt, config.update_interval,
                  "timely.decreases", /*representation_byte=*/true),
      config_(config) {
  assert(config_.t_high > config_.t_low);
  assert(config_.beta > 0.0 && config_.beta <= 1.0);
  assert(config_.update_interval.is_positive());
}

TimelyFlow TimelyPolicy::start_flow(const Flow& flow) const {
  TimelyFlow f;
  f.delta_bps = (flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai
                                                : config_.delta)
                    .bits_per_sec();
  return f;
}

double TimelyPolicy::decide(Network& net, TimePoint now, std::uint32_t slot,
                            std::int64_t /*elapsed_ns*/) {
  TimelyFlow& f = flows_[slot];
  const Duration rtt = sample_rtt(net, slot);
  const double gradient =
      f.rtt.update(rtt, config_.ewma_alpha, config_.base_rtt.to_micros(),
                   /*guard_first=*/false);

  double rate = rate_bps_[slot];
  // MLTCP wrap: the additive step scales with comm-phase progress; the
  // gradient machine itself is untouched.
  double delta = f.delta_bps;
  if (config_.phase_scaling) delta = delta * (1.0 + net.progress_at(slot));
  bool decreased = false;
  if (rtt < config_.t_low) {
    rate += delta;
    ++f.good_rounds;
  } else if (rtt > config_.t_high) {
    const double shrink = 1.0 - config_.beta * (1.0 - config_.t_high / rtt);
    rate = rate * shrink;
    f.good_rounds = 0;
    decreased = true;
  } else if (gradient <= 0.0) {
    ++f.good_rounds;
    const int n = f.good_rounds >= config_.hai_threshold ? 5 : 1;
    rate += delta * static_cast<double>(n);
  } else {
    rate = rate * (1.0 - config_.beta * std::min(gradient, 1.0));
    f.good_rounds = 0;
    decreased = true;
  }
  rate = clamp_rate(rate, slot);
  // TIMELY has no alpha, so value2 carries the gradient behind the decrease.
  if (decreased && events_.on()) [[unlikely]] {
    events_.emit(TraceEventKind::kRateDecrease, now, net.flow_at(slot), rate,
                 gradient);
  }
  return rate;
}

void TimelyPolicy::put_flow(StateBuf& out, const TimelyFlow& f,
                            std::int64_t since_ns) const {
  out.put_f64(f.delta_bps);
  out.put_i64(f.rtt.prev_rtt_ns);
  out.put_f64(f.rtt.ewma_us);
  out.put_u32(static_cast<std::uint32_t>(f.good_rounds));
  out.put_i64(since_ns);
  out.put_f64(f.rtt.gradient(config_.base_rtt.to_micros()));
}

TimelyPolicy::FlowDiag TimelyPolicy::diag(FlowId id) const {
  const auto it = slots_.find(id);
  assert(it != slots_.end());
  const std::uint32_t slot = it->second;
  const TimelyFlow& f = flows_[slot];
  return {Rate::bps(rate_bps_[slot]), Duration::nanos(f.rtt.prev_rtt_ns),
          f.rtt.gradient(config_.base_rtt.to_micros())};
}

template class RateMachine<TimelyPolicy, QueueLink, TimelyFlow>;

}  // namespace ccml
