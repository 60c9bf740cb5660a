// Fluid-level TIMELY (Mittal et al., SIGCOMM '15) — a delay-based RDMA
// congestion controller, included as the second transport family the paper's
// related work contrasts with DCQCN's ECN-based control.
//
// Each flow measures an RTT composed of a fixed propagation base plus the
// queuing delay of the links it traverses, and adjusts its rate on the RTT
// *gradient*:
//   rtt < t_low           -> additive increase  R += delta
//   rtt > t_high          -> multiplicative decrease R *= 1 - beta*(1 - t_high/rtt)
//   otherwise, gradient g = d(rtt)/dt normalized by minRTT:
//     g <= 0              -> additive increase (x5 after N good rounds, HAI)
//     g > 0               -> R *= 1 - beta * g
//
// The per-flow aggressiveness knob here is `delta` (the additive step),
// overridable via FlowSpec::cc_rai — mirroring how DcqcnPolicy repurposes
// the same field — so the paper's unfairness experiments can be replayed on
// a delay-based transport (see bench/ablation_transport_family).
#pragma once

#include <cstdint>

#include "cc/policy/rate_machine.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

struct TimelyConfig {
  Duration t_low = Duration::micros(50);
  Duration t_high = Duration::micros(500);
  Duration base_rtt = Duration::micros(20);
  Rate delta = Rate::mbps(10);   ///< additive-increase step per update
  double beta = 0.8;             ///< multiplicative-decrease factor
  int hai_threshold = 5;         ///< good rounds before hyper increase
  Duration update_interval = Duration::micros(25);
  /// EWMA weight for the RTT-gradient filter.
  double ewma_alpha = 0.46;
  Rate min_rate = Rate::mbps(10);

  /// MLTCP-style window scaling (cc/factory.h, PolicyKind::kMltcpTimely):
  /// every additive-increase step is multiplied by (1 + comm-phase
  /// progress), so flows nearing the end of their phase out-compete flows
  /// that just started — the bytes-sent interleaving mechanism, applied as
  /// a wrapper over the unchanged TIMELY gradient machine.
  bool phase_scaling = false;
};

/// TIMELY's per-flow state beyond the scaffold's rate, line rate and
/// cadence.
struct TimelyFlow {
  double delta_bps = 0.0;  ///< additive step
  RttGradient rtt;
  std::int32_t good_rounds = 0;
};

class TimelyPolicy final
    : public RateMachine<TimelyPolicy, QueueLink, TimelyFlow> {
 public:
  explicit TimelyPolicy(TimelyConfig config = {});

  const char* name() const override {
    return config_.phase_scaling ? "mltcp-timely" : "timely";
  }

  const TimelyConfig& config() const { return config_; }

  struct FlowDiag {
    Rate rate;
    Duration last_rtt;
    double gradient = 0.0;
  };
  FlowDiag diag(FlowId id) const;

 private:
  friend RateMachine;

  TimelyFlow start_flow(const Flow& flow) const;
  double decide(Network& net, TimePoint now, std::uint32_t slot,
                std::int64_t elapsed_ns);
  void put_flow(StateBuf& out, const TimelyFlow& f,
                std::int64_t since_ns) const;

  TimelyConfig config_;
};

extern template class RateMachine<TimelyPolicy, QueueLink, TimelyFlow>;

}  // namespace ccml
