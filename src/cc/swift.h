// Fluid-level Swift (Kumar et al., SIGCOMM '20, simplified) — Google's
// delay-*target* congestion controller, the third transport family in the
// zoo.  Where TIMELY steers on the RTT gradient alone, Swift holds the RTT
// to an absolute end-to-end target:
//   rtt <= target -> additive increase R += AI, damped toward zero as a
//                    positive (normalized) RTT gradient approaches 1 —
//                    queues are building even though the target still holds;
//   rtt >  target -> multiplicative decrease proportional to the overshoot,
//                    R *= 1 - min(beta * (rtt - target)/rtt * amp, max_mdf),
//                    where amp in [1, 2] grows with a positive gradient.
//
// The decision function is a pure CcObservation -> rate map (swift_decide),
// called by the rate-machine kernel and by the scalar test oracle in
// tests/cc_kernel_parity_test.cpp alike — the cleanest exhibit of the policy
// subsystem's observation/action vocabulary (cc/policy/observation.h).
//
// Per-flow aggressiveness knob: FlowSpec::cc_rai overrides the additive step
// (mirroring DCQCN's R_AI and TIMELY's delta), so the paper's unfairness
// experiments replay unchanged on a delay-target transport.
#pragma once

#include <cstdint>

#include "cc/policy/observation.h"
#include "cc/policy/rate_machine.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

struct SwiftConfig {
  /// Absolute end-to-end RTT target (base propagation + queueing budget).
  /// Must exceed base_rtt or the controller can never increase.
  Duration target_delay = Duration::micros(60);
  Duration base_rtt = Duration::micros(20);
  Rate ai = Rate::mbps(20);      ///< additive-increase step per decision
  double beta = 0.8;             ///< decrease aggressiveness
  double max_mdf = 0.5;          ///< max multiplicative-decrease fraction
  /// EWMA weight for the RTT-gradient filter (same filter as TIMELY).
  double ewma_alpha = 0.46;
  Duration update_interval = Duration::micros(25);
  Rate min_rate = Rate::mbps(10);

  /// Uniform per-decision jitter (+/- this many microseconds) on the delay
  /// target, drawn from the policy's seeded RNG stream — breaks the phase
  /// lock of perfectly symmetric flows the way real Swift's packet-timing
  /// noise does.  Zero (the default) draws nothing and stays fully
  /// deterministic; the RNG stream itself is checkpointed either way.
  double target_jitter_us = 0.0;
  std::uint64_t seed = 1;

  /// MLTCP-style window scaling (cc/factory.h, PolicyKind::kMltcpSwift):
  /// the additive step is multiplied by (1 + comm-phase progress), exactly
  /// as for mltcp-timely and DCQCN's adaptive_rai.
  bool phase_scaling = false;
};

/// The outcome of one Swift decision.
struct SwiftDecision {
  double rate_bps = 0.0;
  bool decreased = false;
};

/// Pure decision function: one observation in, one clamped rate out.  The
/// kernel and its test oracle both call this — there is no second copy of
/// the update equations.  `target_us` is the (possibly jittered) absolute
/// RTT target.
SwiftDecision swift_decide(const SwiftConfig& cfg, const CcObservation& obs,
                           double target_us, double rate_bps, double ai_bps,
                           double min_bps, double line_bps);

/// Swift's per-flow state beyond the scaffold's rate, line rate and
/// cadence.
struct SwiftFlow {
  double ai_bps = 0.0;  ///< additive step
  RttGradient rtt;
};

class SwiftPolicy final
    : public RateMachine<SwiftPolicy, QueueLink, SwiftFlow> {
 public:
  explicit SwiftPolicy(SwiftConfig config = {});

  const char* name() const override {
    return config_.phase_scaling ? "mltcp-swift" : "swift";
  }

  const SwiftConfig& config() const { return config_; }

 private:
  friend RateMachine;

  SwiftFlow start_flow(const Flow& flow) const;
  double decide(Network& net, TimePoint now, std::uint32_t slot,
                std::int64_t elapsed_ns);
  void put_flow(StateBuf& out, const SwiftFlow& f,
                std::int64_t since_ns) const;
  void put_tail(StateBuf& out) const { out.put_bytes(rng_.save_state()); }
  /// The (possibly jittered) RTT target for one decision; draws from rng_
  /// only when target_jitter_us is nonzero.
  double decision_target_us();

  SwiftConfig config_;
  Rng rng_;
};

extern template class RateMachine<SwiftPolicy, QueueLink, SwiftFlow>;

}  // namespace ccml
