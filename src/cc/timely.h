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
#include <unordered_map>
#include <vector>

#include "cc/policy/cadence.h"
#include "cc/policy/slab.h"
#include "net/policy.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

class Counter;
class TraceBus;

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

class TimelyPolicy final : public BandwidthPolicy {
 public:
  explicit TimelyPolicy(TimelyConfig config = {});

  const char* name() const override {
    return config_.phase_scaling ? "mltcp-timely" : "timely";
  }

  void on_flow_started(Network& net, Flow& flow) override;
  void on_flow_finished(Network& net, const Flow& flow) override;
  void on_link_capacity_changed(Network& net, LinkId link) override;
  void update_rates(Network& net, TimePoint now, Duration dt) override;
  /// Route line rate, floored at min_rate (the clamp every rate update
  /// applies), so Network::step_burst can fuse completion-free ticks.
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override;
  Bytes link_queue(LinkId link) const override;
  /// With all queues drained nothing evolves between steps while no flow is
  /// active, so the kernel may fast-forward across compute phases.
  bool quiescent() const override { return links_.queues_clear(); }
  /// RTT-gradient state and link queues in ascending-flow-id order (see the
  /// BandwidthPolicy contract in net/policy.h).
  std::string serialize_state() const override;

  const TimelyConfig& config() const { return config_; }

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

  TimelyConfig config_;
  // Per-flow state indexed by the network's stable slab slot (hash-free on
  // the per-step path); `slots_` maps ids for the diag API.
  std::unordered_map<FlowId, std::uint32_t> slots_;

  // SoA columns, slot-indexed.
  std::vector<double> rate_bps_;
  std::vector<double> line_bps_;
  std::vector<double> delta_bps_;     // per-flow additive step
  std::vector<double> ewma_col_;      // smoothed d(rtt) per update, in us
  std::vector<double> grad_col_;      // last normalized gradient
  std::vector<std::int64_t> prev_rtt_ns_;
  DecisionCadence cadence_;  ///< shared fixed-cadence accumulator
  std::vector<std::int32_t> good_rounds_;
  /// Per-link queue state behind the shared two-pass step loop
  /// (cc/policy/slab.h owns the wet-list bookkeeping and quiescence flag).
  LinkQueueSlab<LinkState> links_;
  // Re-resolved when the bound trace bus changes (same idiom as DCQCN).
  TraceBus* bus_cache_ = nullptr;
  Counter* c_decrease_ = nullptr;
};

}  // namespace ccml
