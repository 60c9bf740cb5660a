// Fluid-level BBR-lite (Cardwell et al., "BBR: Congestion-Based Congestion
// Control", ACM Queue '16 — heavily simplified).  The fourth transport
// family in the zoo, and the only model-based one: instead of reacting to a
// congestion *signal* (ECN marks, delay), it maintains an explicit model of
// the path — bottleneck bandwidth (max filter over delivery-rate samples)
// and minimum RTT — and paces at gain * btl_bw through a four-phase state
// machine:
//
//   STARTUP   gain 2.0 until delivery stops growing startup_growth-fold for
//             startup_full_rounds consecutive decisions (pipe filled);
//   DRAIN     gain 0.5 until the route's queues are empty;
//   PROBE_BW  steady state: an 8-slot gain cycle (one probe_up, one
//             probe_down, six cruise) with a per-flow random starting slot
//             so competing flows don't probe in lock-step;
//   PROBE_RTT gain 0.5 for probe_rtt_duration whenever the min-RTT sample
//             is older than min_rtt_window, then back to PROBE_BW.
//
// Delivery rate is measured the fluid way: each tick a flow's sent volume is
// scaled by the worst drain fraction (capacity / arrival) along its route —
// the fraction of fluid that actually crosses the bottleneck rather than
// piling into its queue.
//
// BBR-lite has no additive-increase step, so there is no MLTCP wrap for it
// (cc/factory.cpp rejects the combination).  Like every transport it has one
// implementation, the SoA slab path; unlike DCQCN, TIMELY and Swift it has
// no scalar oracle in tests/cc_kernel_parity_test.cpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cc/policy/cadence.h"
#include "cc/policy/slab.h"
#include "net/policy.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

class Counter;
class TraceBus;

struct BbrConfig {
  Duration update_interval = Duration::micros(50);  ///< decision cadence
  double startup_gain = 2.0;
  double drain_gain = 0.5;
  double probe_up_gain = 1.25;   ///< PROBE_BW slot 0
  double probe_down_gain = 0.75; ///< PROBE_BW slot 1 (slots 2-7 cruise at 1)
  /// STARTUP exits after this many consecutive decisions without the
  /// bottleneck-bandwidth estimate growing startup_growth-fold.
  double startup_growth = 1.25;
  int startup_full_rounds = 3;
  /// Bandwidth samples older than this many decisions age out of the max
  /// filter (the estimate resets to the next sample).
  int bw_window_rounds = 8;
  Duration min_rtt_window = Duration::millis(10);
  Duration probe_rtt_duration = Duration::micros(200);
  Duration base_rtt = Duration::micros(20);
  Rate min_rate = Rate::mbps(10);
  /// Seeds the per-flow PROBE_BW cycle offset (decorrelates probing).
  std::uint64_t seed = 1;
};

class BbrPolicy final : public BandwidthPolicy {
 public:
  /// BBR's four pacing phases; values are serialized and traced.
  enum class Mode : std::int32_t {
    kStartup = 0,
    kDrain = 1,
    kProbeBw = 2,
    kProbeRtt = 3,
  };
  static const char* mode_name(Mode m);

  explicit BbrPolicy(BbrConfig config = {});

  const char* name() const override { return "bbr"; }

  void on_flow_started(Network& net, Flow& flow) override;
  void on_flow_finished(Network& net, const Flow& flow) override;
  void on_link_capacity_changed(Network& net, LinkId link) override;
  void update_rates(Network& net, TimePoint now, Duration dt) override;
  /// Pacing never exceeds the route line rate (every decision clamps there),
  /// floored at min_rate.
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override;
  Bytes link_queue(LinkId link) const override;
  /// With all queues drained nothing evolves between steps while no flow is
  /// active, so the kernel may fast-forward across compute phases.
  bool quiescent() const override { return links_.queues_clear(); }
  /// Path model, state machine, link queues and the cycle RNG stream in
  /// ascending-flow-id order (see the BandwidthPolicy contract).
  std::string serialize_state() const override;

  const BbrConfig& config() const { return config_; }

  struct FlowDiag {
    Rate rate;
    Rate btl_bw;        ///< bottleneck-bandwidth estimate
    Duration min_rtt;
    Mode mode = Mode::kStartup;
  };
  FlowDiag diag(FlowId id) const;

 private:
  struct LinkState {
    double queue_b = 0.0;    ///< egress backlog, bytes
    double drain_frac = 1.0; ///< capacity / arrival this tick, <= 1
    std::uint64_t stamp = 0; ///< last queue pass that touched this link
  };

  void resize_soa(std::size_t n);
  double cycle_gain(std::int32_t idx) const {
    if (idx == 0) return config_.probe_up_gain;
    if (idx == 1) return config_.probe_down_gain;
    return 1.0;
  }

  BbrConfig config_;
  Rng rng_;
  std::unordered_map<FlowId, std::uint32_t> slots_;

  // SoA columns, slot-indexed.
  std::vector<double> rate_bps_;
  std::vector<double> line_bps_;
  std::vector<double> btl_bw_bps_;   ///< max-filtered delivery rate
  std::vector<double> full_bw_bps_;  ///< STARTUP growth reference
  std::vector<double> deliv_b_;      ///< bytes delivered this decision epoch
  std::vector<std::int64_t> min_rtt_ns_;
  std::vector<std::int64_t> min_rtt_stamp_ns_;  ///< when min_rtt was sampled
  std::vector<std::int64_t> probe_rtt_end_ns_;
  std::vector<std::int64_t> interval_ns_;  ///< per-flow cadence (cc_timer)
  std::vector<std::int32_t> mode_col_;
  std::vector<std::int32_t> cycle_idx_;
  std::vector<std::int32_t> bw_age_;
  std::vector<std::int32_t> full_rounds_;
  DecisionCadence cadence_;  ///< shared fixed-cadence accumulator
  /// Per-link queue + drain-fraction state behind the shared two-pass loop.
  LinkQueueSlab<LinkState> links_;
  // Re-resolved when the bound trace bus changes (same idiom as DCQCN).
  TraceBus* bus_cache_ = nullptr;
  Counter* c_phase_ = nullptr;
};

}  // namespace ccml
