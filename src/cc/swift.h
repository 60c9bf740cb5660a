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
// called by the SoA slab kernel and by the scalar test oracle in
// tests/cc_kernel_parity_test.cpp alike — the cleanest exhibit of the policy
// subsystem's observation/action vocabulary (cc/policy/observation.h).
//
// Per-flow aggressiveness knob: FlowSpec::cc_rai overrides the additive step
// (mirroring DCQCN's R_AI and TIMELY's delta), so the paper's unfairness
// experiments replay unchanged on a delay-target transport.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cc/policy/cadence.h"
#include "cc/policy/observation.h"
#include "cc/policy/slab.h"
#include "net/policy.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

class Counter;
class TraceBus;

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

class SwiftPolicy final : public BandwidthPolicy {
 public:
  explicit SwiftPolicy(SwiftConfig config = {});

  const char* name() const override {
    return config_.phase_scaling ? "mltcp-swift" : "swift";
  }

  void on_flow_started(Network& net, Flow& flow) override;
  void on_flow_finished(Network& net, const Flow& flow) override;
  void on_link_capacity_changed(Network& net, LinkId link) override;
  void update_rates(Network& net, TimePoint now, Duration dt) override;
  /// Route line rate, floored at min_rate (the clamp swift_decide applies).
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override;
  Bytes link_queue(LinkId link) const override;
  /// With all queues drained nothing evolves between steps while no flow is
  /// active, so the kernel may fast-forward across compute phases.
  bool quiescent() const override { return links_.queues_clear(); }
  /// Delay-target state, link queues and the jitter RNG stream in
  /// ascending-flow-id order (see the BandwidthPolicy contract).
  std::string serialize_state() const override;

  const SwiftConfig& config() const { return config_; }

  struct FlowDiag {
    Rate rate;
    Duration last_rtt;
    double gradient = 0.0;
  };
  FlowDiag diag(FlowId id) const;

 private:
  struct LinkState {
    Bytes queue = Bytes::zero();
    std::uint64_t stamp = 0;  ///< last queue pass that touched this link
  };

  void resize_soa(std::size_t n);
  /// The (possibly jittered) RTT target for one decision; draws from rng_
  /// only when target_jitter_us is nonzero.
  double decision_target_us();

  SwiftConfig config_;
  Rng rng_;
  // Per-flow state indexed by the network's stable slab slot; `slots_` maps
  // ids for the diag API (same layout rule as TIMELY).
  std::unordered_map<FlowId, std::uint32_t> slots_;

  // SoA columns, slot-indexed.
  std::vector<double> rate_bps_;
  std::vector<double> line_bps_;
  std::vector<double> ai_bps_;        // per-flow additive step
  std::vector<double> ewma_col_;      // smoothed d(rtt) per decision, in us
  std::vector<double> grad_col_;      // last normalized gradient
  std::vector<std::int64_t> prev_rtt_ns_;
  DecisionCadence cadence_;  ///< shared fixed-cadence accumulator
  /// Per-link queue state behind the shared two-pass step loop
  /// (cc/policy/slab.h owns the wet-list bookkeeping and quiescence flag).
  LinkQueueSlab<LinkState> links_;
  // Re-resolved when the bound trace bus changes (same idiom as DCQCN).
  TraceBus* bus_cache_ = nullptr;
  Counter* c_decrease_ = nullptr;
};

}  // namespace ccml
