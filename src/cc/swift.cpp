#include "cc/swift.h"

#include <cassert>

namespace ccml {

SwiftDecision swift_decide(const CcObservation& obs, double target_us,
                           double rate_bps, double ai_bps, double min_bps,
                           double line_bps) {
  SwiftDecision d;
  const double g = obs.rtt_gradient;
  if (obs.rtt_us <= target_us) {
    // Under target: additive increase, damped linearly toward zero as a
    // positive normalized gradient approaches 1 — the queue is filling even
    // though the target still holds, so probe more gently.
    const double damp = g > 0.0 ? (g < 1.0 ? 1.0 - g : 0.0) : 1.0;
    d.rate_bps = rate_bps + ai_bps * damp;
  } else {
    // Over target: multiplicative decrease proportional to the overshoot
    // fraction, amplified up to 2x by a positive gradient (overshooting
    // *and* still growing), capped at kMaxMdf per decision.
    double md = SwiftPolicy::kBeta * (obs.rtt_us - target_us) / obs.rtt_us;
    if (g > 0.0) md *= 1.0 + (g < 1.0 ? g : 1.0);
    if (md > SwiftPolicy::kMaxMdf) md = SwiftPolicy::kMaxMdf;
    d.rate_bps = rate_bps * (1.0 - md);
    d.decreased = true;
  }
  if (d.rate_bps < min_bps) d.rate_bps = min_bps;
  if (d.rate_bps > line_bps) d.rate_bps = line_bps;
  return d;
}

static_assert(SwiftPolicy::kTargetDelay > kBaseRtt);
static_assert(SwiftPolicy::kBeta > 0.0 && SwiftPolicy::kBeta <= 1.0);
static_assert(SwiftPolicy::kMaxMdf > 0.0 && SwiftPolicy::kMaxMdf < 1.0);

SwiftPolicy::SwiftPolicy(SwiftConfig config)
    : RateMachine(config.update_interval, "swift.decreases",
                  /*representation_byte=*/true),
      config_(config),
      rng_(config.seed) {
  assert(config_.update_interval.is_positive());
}

double SwiftPolicy::decision_target_us() {
  const double target_us = kTargetDelay.to_micros();
  if (config_.target_jitter_us == 0.0) return target_us;
  return target_us + config_.target_jitter_us * (2.0 * rng_.uniform() - 1.0);
}

SwiftFlow SwiftPolicy::start_flow(const Flow& flow) const {
  SwiftFlow f;
  f.ai_bps =
      (flow.spec.cc_rai.is_positive() ? flow.spec.cc_rai : kAi)
          .bits_per_sec();
  return f;
}

double SwiftPolicy::decide(Network& net, TimePoint now, std::uint32_t slot,
                           std::int64_t /*elapsed_ns*/) {
  SwiftFlow& f = flows_[slot];
  const Duration rtt = sample_rtt(net, slot);
  const double gradient = f.rtt.update(rtt, /*guard_first=*/true);

  // MLTCP wrap: additive step scales with comm-phase progress.
  double ai_bps = f.ai_bps;
  const double progress = net.progress_at(slot);
  if (config_.phase_scaling) ai_bps = ai_bps * (1.0 + progress);

  CcObservation obs;
  obs.rtt_us = rtt.to_micros();
  obs.rtt_gradient = gradient;
  obs.phase_progress = progress;
  const SwiftDecision d =
      swift_decide(obs, decision_target_us(), rate_bps_[slot], ai_bps,
                   kMinBps, line_bps_[slot]);
  // value2 carries the gradient behind the decrease.
  if (d.decreased && events_.on()) [[unlikely]] {
    events_.emit(TraceEventKind::kRateDecrease, now, net.flow_at(slot),
                 d.rate_bps, gradient);
  }
  return d.rate_bps;
}

void SwiftPolicy::put_flow(StateBuf& out, const SwiftFlow& f,
                           std::int64_t since_ns) const {
  out.put_f64(f.ai_bps);
  out.put_i64(f.rtt.prev_rtt_ns);
  out.put_f64(f.rtt.ewma_us);
  out.put_i64(since_ns);
  out.put_f64(f.rtt.gradient());
}

template class RateMachine<SwiftPolicy, QueueLink, SwiftFlow>;

}  // namespace ccml
