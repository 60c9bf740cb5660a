#include "cc/bbr.h"

#include <algorithm>

namespace ccml {

const char* to_string(BbrMode mode) {
  switch (mode) {
    case BbrMode::kStartup: return "startup";
    case BbrMode::kDrain: return "drain";
    case BbrMode::kProbeBw: return "probe-bw";
    case BbrMode::kProbeRtt: return "probe-rtt";
  }
  return "unknown";
}

static_assert(BbrPolicy::kUpdateInterval.is_positive());
static_assert(BbrPolicy::kStartupGain > 1.0);
static_assert(BbrPolicy::kDrainGain > 0.0 && BbrPolicy::kDrainGain < 1.0);
static_assert(BbrPolicy::kBwWindowRounds > 0);

BbrPolicy::BbrPolicy(BbrConfig config)
    : RateMachine(kUpdateInterval, "bbr.phase_changes",
                  /*representation_byte=*/false),
      rng_(config.seed) {}

BbrFlow BbrPolicy::start_flow(const Flow& flow) {
  // The model starts empty: the first decision's delivery sample seeds the
  // max filter, so STARTUP paces off measured delivery rather than the
  // configured line rate.
  BbrFlow f;
  // Per-flow cadence knob: FlowSpec::cc_timer shortens (or stretches) the
  // decision interval, the same aggressiveness dial DCQCN's timer exposes.
  f.interval_ns = flow.spec.cc_timer.is_positive()
                      ? flow.spec.cc_timer.ns()
                      : kUpdateInterval.ns();
  // Random PROBE_BW starting slot, drawn per flow from the seeded stream so
  // competing flows don't synchronize their probe pulses.
  f.cycle_idx = static_cast<std::int32_t>(rng_.uniform_int(0, 7));
  return f;
}

void BbrPolicy::observe_tick(const Network& net, std::uint32_t slot,
                             double rate_bps, double dt_s) {
  // Delivery accounting runs every tick: sent volume scaled by the worst
  // drain fraction along the route.  Every route link of an active flow is
  // in the queue pass's hot set (links_in_use), so the fractions are fresh.
  double frac = 1.0;
  for (const std::int32_t l : net.route_links(slot)) {
    frac = std::min(frac, links_[l].drain_frac);
  }
  flows_[slot].deliv_b += rate_bps * dt_s / 8.0 * frac;
}

double BbrPolicy::decide(Network& net, TimePoint now, std::uint32_t slot,
                         std::int64_t elapsed_ns) {
  BbrFlow& f = flows_[slot];
  // Bandwidth sample into the aging max filter.
  const double sample_bps =
      f.deliv_b * 8.0 / (static_cast<double>(elapsed_ns) * 1e-9);
  f.deliv_b = 0.0;
  ++f.bw_age;
  if (sample_bps >= f.btl_bw_bps || f.bw_age >= kBwWindowRounds) {
    f.btl_bw_bps = sample_bps;
    f.bw_age = 0;
  }

  // RTT sample and route backlog.
  double backlog_b = 0.0;
  const Duration rtt = sample_rtt(
      net, slot, [&](const BbrLink& l) { backlog_b += l.queue_b; });
  const std::int64_t now_ns = now.since_origin().ns();
  if (rtt.ns() <= f.min_rtt_ns) {
    f.min_rtt_ns = rtt.ns();
    f.min_rtt_stamp_ns = now_ns;
  }

  // State machine.
  const BbrMode prev = f.mode;
  BbrMode mode = prev;
  double gain = 1.0;
  switch (mode) {
    case BbrMode::kStartup:
      gain = kStartupGain;
      if (f.btl_bw_bps >= f.full_bw_bps * kStartupGrowth) {
        f.full_bw_bps = f.btl_bw_bps;
        f.full_rounds = 0;
      } else if (++f.full_rounds >= kStartupFullRounds) {
        mode = BbrMode::kDrain;  // pipe full: stop doubling, drain the queue
        gain = kDrainGain;
      }
      break;
    case BbrMode::kDrain:
      gain = kDrainGain;
      if (backlog_b == 0.0) {
        mode = BbrMode::kProbeBw;
        gain = cycle_gain(f.cycle_idx);
      }
      break;
    case BbrMode::kProbeBw:
      if (now_ns - f.min_rtt_stamp_ns > kMinRttWindow.ns()) {
        mode = BbrMode::kProbeRtt;  // min-RTT sample stale: re-measure
        f.probe_rtt_end_ns = now_ns + kProbeRttDuration.ns();
        gain = kDrainGain;
      } else {
        gain = cycle_gain(f.cycle_idx);
        f.cycle_idx = (f.cycle_idx + 1) & 7;
      }
      break;
    case BbrMode::kProbeRtt:
      gain = kDrainGain;
      if (now_ns >= f.probe_rtt_end_ns) {
        // Queues backed off for a full probe window; the current sample is
        // as clean as this fluid model gets.
        f.min_rtt_ns = rtt.ns();
        f.min_rtt_stamp_ns = now_ns;
        mode = BbrMode::kProbeBw;
      }
      break;
  }

  const double rate = clamp_rate(gain * f.btl_bw_bps, slot);
  if (mode != prev) {
    f.mode = mode;
    if (events_.on()) [[unlikely]] {
      events_.emit(TraceEventKind::kCcPhase, now, net.flow_at(slot),
                   static_cast<double>(static_cast<std::int32_t>(mode)), rate,
                   to_string(mode));
    }
  }
  return rate;
}

void BbrPolicy::put_flow(StateBuf& out, const BbrFlow& f,
                         std::int64_t since_ns) const {
  out.put_f64(f.btl_bw_bps);
  out.put_f64(f.full_bw_bps);
  out.put_f64(f.deliv_b);
  out.put_i64(f.min_rtt_ns);
  out.put_i64(f.min_rtt_stamp_ns);
  out.put_i64(f.probe_rtt_end_ns);
  out.put_i64(f.interval_ns);
  out.put_i64(since_ns);
  out.put_u32(static_cast<std::uint32_t>(f.mode));
  out.put_u32(static_cast<std::uint32_t>(f.cycle_idx));
  out.put_u32(static_cast<std::uint32_t>(f.bw_age));
  out.put_u32(static_cast<std::uint32_t>(f.full_rounds));
}

template class RateMachine<BbrPolicy, BbrLink, BbrFlow>;

}  // namespace ccml
