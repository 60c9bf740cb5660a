#include "cc/timely.h"

#include <algorithm>
#include <cassert>

namespace ccml {

static_assert(TimelyPolicy::kTHigh > TimelyPolicy::kTLow);
static_assert(TimelyPolicy::kBeta > 0.0 && TimelyPolicy::kBeta <= 1.0);
static_assert(TimelyPolicy::kUpdateInterval.is_positive());

TimelyPolicy::TimelyPolicy(TimelyConfig config)
    : RateMachine(kUpdateInterval, "timely.decreases",
                  /*representation_byte=*/true),
      config_(config) {}

TimelyFlow TimelyPolicy::start_flow(const Flow& flow) const {
  TimelyFlow f;
  f.delta_bps = (flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai : kDelta)
                    .bits_per_sec();
  return f;
}

double TimelyPolicy::decide(Network& net, TimePoint now, std::uint32_t slot,
                            std::int64_t /*elapsed_ns*/) {
  TimelyFlow& f = flows_[slot];
  const Duration rtt = sample_rtt(net, slot);
  const double gradient = f.rtt.update(rtt, /*guard_first=*/false);

  double rate = rate_bps_[slot];
  // MLTCP wrap: the additive step scales with comm-phase progress; the
  // gradient machine itself is untouched.
  double delta = f.delta_bps;
  if (config_.phase_scaling) delta = delta * (1.0 + net.progress_at(slot));
  bool decreased = false;
  if (rtt < kTLow) {
    rate += delta;
    ++f.good_rounds;
  } else if (rtt > kTHigh) {
    const double shrink = 1.0 - kBeta * (1.0 - kTHigh / rtt);
    rate = rate * shrink;
    f.good_rounds = 0;
    decreased = true;
  } else if (gradient <= 0.0) {
    ++f.good_rounds;
    const int n = f.good_rounds >= kHaiThreshold ? 5 : 1;
    rate += delta * static_cast<double>(n);
  } else {
    rate = rate * (1.0 - kBeta * std::min(gradient, 1.0));
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
  out.put_f64(f.rtt.gradient());
}

TimelyPolicy::FlowDiag TimelyPolicy::diag(FlowId id) const {
  const auto it = slots_.find(id);
  assert(it != slots_.end());
  const std::uint32_t slot = it->second;
  const TimelyFlow& f = flows_[slot];
  return {Rate::bps(rate_bps_[slot]), Duration::nanos(f.rtt.prev_rtt_ns),
          f.rtt.gradient()};
}

template class RateMachine<TimelyPolicy, QueueLink, TimelyFlow>;

}  // namespace ccml
