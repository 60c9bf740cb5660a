// Fluid-level BBR-lite (Cardwell et al., "BBR: Congestion-Based Congestion
// Control", ACM Queue '16 — heavily simplified).  The fourth transport
// family in the zoo, and the only model-based one: instead of reacting to a
// congestion *signal* (ECN marks, delay), it maintains an explicit model of
// the path — bottleneck bandwidth (max filter over delivery-rate samples)
// and minimum RTT — and paces at gain * btl_bw through a four-phase state
// machine:
//
//   STARTUP   gain 2.0 until delivery stops growing kStartupGrowth-fold for
//             kStartupFullRounds consecutive decisions (pipe filled);
//   DRAIN     gain 0.5 until the route's queues are empty;
//   PROBE_BW  steady state: an 8-slot gain cycle (one probe_up, one
//             probe_down, six cruise) with a per-flow random starting slot
//             so competing flows don't probe in lock-step;
//   PROBE_RTT gain 0.5 for kProbeRttDuration whenever the min-RTT sample
//             is older than kMinRttWindow, then back to PROBE_BW.
//
// Delivery rate is measured the fluid way: each tick a flow's sent volume is
// scaled by the worst drain fraction (capacity / arrival) along its route —
// the fraction of fluid that actually crosses the bottleneck rather than
// piling into its queue.
//
// BBR-lite has no additive-increase step, so there is no MLTCP wrap for it
// (cc/factory.cpp rejects the combination).  Unlike DCQCN, TIMELY and Swift
// it has no scalar oracle in tests/cc_kernel_parity_test.cpp; golden hashes
// in tests/cc_transport_zoo_test.cpp pin its bytes.
#pragma once

#include <cstdint>
#include <limits>

#include "cc/policy/rate_machine.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

struct BbrConfig {
  /// Seeds the per-flow PROBE_BW cycle offset (decorrelates probing).
  std::uint64_t seed = 1;
};

/// BBR's four pacing phases; values are serialized and traced.
enum class BbrMode : std::int32_t {
  kStartup = 0,
  kDrain = 1,
  kProbeBw = 2,
  kProbeRtt = 3,
};
const char* to_string(BbrMode mode);

/// BBR's per-flow path model and state machine.
struct BbrFlow {
  double btl_bw_bps = 0.0;   ///< max-filtered delivery rate
  double full_bw_bps = 0.0;  ///< STARTUP growth reference
  double deliv_b = 0.0;      ///< bytes delivered this decision epoch
  std::int64_t min_rtt_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t min_rtt_stamp_ns = 0;  ///< when min_rtt was sampled
  std::int64_t probe_rtt_end_ns = 0;
  std::int64_t interval_ns = 0;  ///< per-flow cadence (cc_timer)
  BbrMode mode = BbrMode::kStartup;
  std::int32_t cycle_idx = 0;
  std::int32_t bw_age = 0;
  std::int32_t full_rounds = 0;
};

/// A link's queue plus its drain fraction this tick.
struct BbrLink : QueueLink {
  double drain_frac = 1.0;  ///< capacity / arrival this tick, <= 1
};

class BbrPolicy final : public RateMachine<BbrPolicy, BbrLink, BbrFlow> {
 public:
  explicit BbrPolicy(BbrConfig config = {});

  const char* name() const override { return "bbr"; }

  // BBR-lite's fixed parameters (base RTT and rate floor:
  // cc/policy/signals.h).
  /// Decision cadence; FlowSpec::cc_timer overrides it per flow.
  static constexpr Duration kUpdateInterval = Duration::micros(50);
  static constexpr double kStartupGain = 2.0;
  static constexpr double kDrainGain = 0.5;
  static constexpr double kProbeUpGain = 1.25;    ///< PROBE_BW slot 0
  static constexpr double kProbeDownGain = 0.75;  ///< slot 1 (2-7 cruise at 1)
  /// STARTUP exits after kStartupFullRounds consecutive decisions without
  /// the bottleneck-bandwidth estimate growing kStartupGrowth-fold.
  static constexpr double kStartupGrowth = 1.25;
  static constexpr int kStartupFullRounds = 3;
  /// Bandwidth samples older than this many decisions age out of the max
  /// filter (the estimate resets to the next sample).
  static constexpr int kBwWindowRounds = 8;
  static constexpr Duration kMinRttWindow = Duration::millis(10);
  static constexpr Duration kProbeRttDuration = Duration::micros(200);

 private:
  friend RateMachine;

  BbrFlow start_flow(const Flow& flow);
  std::int64_t interval_ns(std::uint32_t slot) const {
    return flows_[slot].interval_ns;
  }
  void observe_tick(const Network& net, std::uint32_t slot, double rate_bps,
                    double dt_s);
  void mark_link(BbrLink& link, double cap_bps, double arrival_bps) const {
    link.drain_frac = arrival_bps > cap_bps ? cap_bps / arrival_bps : 1.0;
  }
  double decide(Network& net, TimePoint now, std::uint32_t slot,
                std::int64_t elapsed_ns);
  void put_flow(StateBuf& out, const BbrFlow& f, std::int64_t since_ns) const;
  void put_tail(StateBuf& out) const { out.put_bytes(rng_.save_state()); }
  static double cycle_gain(std::int32_t idx) {
    if (idx == 0) return kProbeUpGain;
    if (idx == 1) return kProbeDownGain;
    return 1.0;
  }

  Rng rng_;
};

extern template class RateMachine<BbrPolicy, BbrLink, BbrFlow>;

}  // namespace ccml
