// Fluid-level DCQCN (Zhu et al., SIGCOMM '15; fluid analysis CoNEXT '16).
//
// Each flow runs the RP (reaction point) rate machine:
//   * on congestion notification (CNP):  R_T <- R_C,
//     alpha <- (1-g)*alpha + g,  R_C <- R_C * (1 - alpha/2)
//   * rate increase driven by a timer (period T) and a byte counter (B):
//     fast recovery (first F rounds):  R_C <- (R_T + R_C)/2
//     additive increase:               R_T <- R_T + R_AI, R_C <- (R_T+R_C)/2
//     hyper increase:                  R_T <- R_T + R_HAI, R_C <- (R_T+R_C)/2
//   * alpha decays by (1-g) every alpha-update period without CNPs.
//
// Switches (CP) mark in the RED/ECN style: probability rises linearly from 0
// at Kmin to Pmax at Kmax, then jumps to 1.  The NP generates at most one CNP
// per flow per cnp_interval.
//
// Unfairness knobs (the paper's Figure 1 experiment): FlowSpec::cc_timer
// overrides T per flow and FlowSpec::cc_rai overrides R_AI per flow — a
// smaller T / larger R_AI makes a flow more aggressive.
//
// Adaptive unfairness (paper §4, direction (i)): with
// DcqcnConfig::adaptive_rai set, the additive-increase step becomes
//   R_AI * (1 + Data_sent / Data_comm_phase)
// so a flow nearing the end of its communication phase out-competes one that
// just started, interleaving compatible jobs while incompatible jobs keep
// taking turns and time-average to a fair share.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cc/policy/signals.h"
#include "cc/policy/slab.h"
#include "net/policy.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

class Counter;
class TraceBus;

struct DcqcnConfig {
  // CP (switch) marking: the shared RED profile (cc/policy/signals.h).
  Bytes kmin = kRedKmin;
  Bytes kmax = kRedKmax;
  double pmax = kRedPmax;

  // NP: minimum gap between CNPs for one flow.
  Duration cnp_interval = Duration::micros(50);

  /// T, the RP increase timer (the paper's testbed default);
  /// FlowSpec::cc_timer overrides it per flow.
  Duration timer = Duration::micros(125);

  /// Scale R_AI by (1 + comm-phase progress): the paper's adaptively unfair
  /// congestion control.
  bool adaptive_rai = false;

  /// Marking model.  `true` integrates the *expected* number of marked
  /// packets and fires a CNP when it reaches one — flows with identical
  /// parameters then stay perfectly symmetric, matching the paper's
  /// observation that fair sharing keeps competing jobs overlapped
  /// indefinitely (Fig. 2a).  `false` draws Bernoulli marks per step, which
  /// adds realistic jitter but lets even fair sharing drift apart slowly
  /// (uncorrelated-noise random walk; see bench/ablation_marking_noise).
  bool deterministic_marking = true;

  /// Seed for the stochastic marking process.
  std::uint64_t seed = 1;
};

class DcqcnPolicy : public BandwidthPolicy, public QueuePassWork {
 public:
  explicit DcqcnPolicy(DcqcnConfig config = {});

  const char* name() const override {
    return config_.adaptive_rai ? "dcqcn-adaptive" : "dcqcn";
  }

  void on_flow_started(Network& net, Flow& flow) override;
  void on_flow_finished(Network& net, const Flow& flow) override;
  void on_link_capacity_changed(Network& net, LinkId link) override;
  void update_rates(Network& net, TimePoint now, Duration dt) override;
  void update_rates_burst(Network& net, TimePoint first, Duration dt,
                          std::uint64_t ticks) override;
  /// Route line rate, floored at the kRateFloor minimum a decrease
  /// enforces.
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override;
  Bytes link_queue(LinkId link) const override;
  /// With all switch queues drained nothing evolves between steps while no
  /// flow is active, so the kernel may fast-forward across compute phases.
  bool quiescent() const override { return links_.queues_clear(); }
  /// Rate-machine columns, link queues and the marking RNG stream, in
  /// ascending-flow-id order (see the BandwidthPolicy contract in
  /// net/policy.h).
  std::string serialize_state() const override;

  const DcqcnConfig& config() const { return config_; }

  // The RP rate machine's fixed parameters (the rate floor:
  // cc/policy/signals.h).
  /// R_AI, the additive step; FlowSpec::cc_rai overrides it per flow.
  static constexpr Rate kRai = Rate::mbps(40);
  static constexpr Bytes kByteCounter = Bytes::mega(10);  ///< B
  static constexpr Rate kRhai = Rate::mbps(200);          ///< R_HAI
  static constexpr int kFastRecoveryRounds = 5;           ///< F
  static constexpr double kG = 1.0 / 256.0;               ///< alpha gain
  static constexpr Duration kAlphaUpdate = Duration::micros(55);
  /// Typical packet size, converting fluid rate into a marking-event
  /// intensity.
  static constexpr Bytes kMtu = Bytes::kilo(1);

  /// Per-flow diagnostic snapshot (used by tests and telemetry).
  struct RpState {
    Rate current;    ///< R_C
    Rate target;     ///< R_T
    double alpha = 1.0;
    int timer_rounds = 0;
    int byte_rounds = 0;
  };
  RpState rp_state(FlowId id) const;

  /// Rate-machine work: flow-ticks stepped in total, and the share of them
  /// a pinned flow owed instead of stepping (see rp_pass).  Plain members,
  /// not bus counters: binding a bus forces the eager traced pass.
  struct Work {
    std::uint64_t flow_ticks = 0;
    std::uint64_t flow_ticks_lazy = 0;
  };
  const Work& work() const { return work_; }
  std::uint64_t queue_link_passes() const override {
    return links_.link_passes();
  }

 private:
  struct LinkState {
    double queue_b = 0.0;     ///< egress backlog, bytes
    double cap_bps = 0.0;     ///< cached effective capacity (see refresh_caps)
    double mark_prob = 0.0;
    double log_keep = 0.0;
    std::uint64_t stamp = 0;  ///< last CP pass that touched this link
  };

  /// (Re)sizes `links_` to the topology and snapshots every effective
  /// capacity into LinkState::cap_bps.  Capacities only move through
  /// on_link_capacity_changed, so the CP pass reads the cached double
  /// instead of recomputing Rate wrappers per link per tick.
  void refresh_caps(const Network& net);
  /// Shared once-per-call preamble of update_rates / update_rates_burst.
  void sync_caches(Network& net, Duration dt);
  /// One fluid step: CP queue/marking pass + NP/RP dispatch, or only the
  /// tick count while the network is frozen.
  void step_tick(Network& net, TimePoint now, Duration dt);
  /// NP + RP slab pass, per flow: gather (bytes sent and route marking
  /// probability, from the network's rate slab and flat route array) →
  /// kernel (rate machine over the SoA columns below) → scatter (the new
  /// rate back into the network slab).  Compiled twice: the Traced
  /// instantiation emits TraceEvents through `bus_cache_`, the untraced one
  /// contains no trace code at all so the no-sink hot loop stays identical
  /// to an uninstrumented build (even a never-taken branch around an emit
  /// call costs measurable time here).  The untraced pass skips pinned
  /// flows (see `pinned`); the traced one emits a `rate-timer` event per
  /// timer fire, so it steps every flow.
  template <bool Traced>
  void rp_pass(Network& net, TimePoint now, Duration dt, bool any_marked);
  /// A flow is pinned when an unmarked tick provably leaves its rates at
  /// line: R_C == R_T == line, no pending CNP (emarks < 1; otherwise one
  /// fires once the CNP clock allows), and non-negative increase steps
  /// (kRhai is), so soa_increase clamps both rates back to line.  The
  /// caller adds the tick's own condition, p_any == 0.
  bool pinned(std::uint32_t slot) const {
    static_assert(kRhai.bits_per_sec() >= 0.0);
    return rc_bps_[slot] == line_bps_[slot] &&
           rt_bps_[slot] == line_bps_[slot] && emarks_[slot] < 1.0 &&
           rai_bps_[slot] >= 0.0;
  }
  /// Replays the ticks `slot` owes since `lazy_since_[slot]` and leaves it
  /// current as of `tick_`: the clocks and round counters in closed form,
  /// alpha's decays one step at a time, bsi_bytes_ as the eager add loop.
  /// Const because reads (serialize_state, rp_state) must materialize; the
  /// columns it writes are mutable.
  void materialize(std::uint32_t slot) const;
  void materialize_active(const Network& net) const;

  DcqcnConfig config_;
  Rng rng_;
  // Rate-machine state indexed by the network's stable slab slot so the
  // per-step RP pass is hash-free; `slots_` maps ids for the diag API and
  // is only consulted off the hot path.
  std::unordered_map<FlowId, std::uint32_t> slots_;

  // SoA columns, slot-indexed (one contiguous array per rate-machine field).
  // The mutable ones are those a pinned flow's owed ticks still move; a
  // const read materializes them first.
  std::vector<double> rc_bps_;        // current rate
  std::vector<double> rt_bps_;        // target rate
  std::vector<double> line_bps_;      // min capacity along the route
  mutable std::vector<double> alpha_col_;
  std::vector<double> rai_bps_;       // per-flow R_AI
  mutable std::vector<double> bsi_bytes_;  // bytes since last increase
  mutable std::vector<double> emarks_;  // deterministic-marking accumulator
  std::vector<std::int64_t> timer_ns_;
  mutable std::vector<std::int64_t> tsi_ns_;  // time since last increase
  mutable std::vector<std::int64_t> cnp_ns_;  // time since last CNP
  mutable std::vector<std::int64_t> aclk_ns_;
  mutable std::vector<std::int64_t> clean_ns_;
  mutable std::vector<std::int32_t> timer_rounds_col_;
  mutable std::vector<std::int32_t> byte_rounds_col_;
  void resize_soa(std::size_t n);
  void soa_increase(std::uint32_t slot, double progress);

  // Lazy ledger.  `tick_` counts rate-machine ticks; a slot skipped as
  // pinned records in `lazy_since_` the tick its columns are current at and
  // owes tick_ - lazy_since_[slot] ticks; kCurrent marks a slot the pass
  // steps eagerly.  Owed ticks all share the ledger's dt (a dt change
  // materializes every owing flow first).
  static constexpr std::uint64_t kCurrent = ~std::uint64_t{0};
  std::uint64_t tick_ = 0;
  mutable std::vector<std::uint64_t> lazy_since_;
  /// Whether any active flow may owe ticks.  Every untraced pass leaves
  /// each active flow either skipped (owing) or current, and binding a bus
  /// brings them all current, so this is "the last untraced pass skipped a
  /// flow"; while it is false the pass tests no slot's ledger.
  bool owing_ = false;
  std::int64_t ledger_dt_ns_ = 0;
  double ledger_dt_s_ = 0.0;
  /// Set after an untraced pass in which every flow was pinned, no link can
  /// congest (cp_links_ empty) and every queue is clear: nothing can move
  /// until a flow starts, a capacity changes or the bus changes, so a tick
  /// is only ++tick_.
  bool frozen_ = false;
  Work work_;
  /// Advances a frozen network `ticks` ticks: every active flow owes them.
  void owe_frozen(const Network& net, std::uint64_t ticks);

  /// Per-link queue/marking state behind the shared two-pass step loop
  /// (cc/policy/slab.h owns the wet-list bookkeeping and quiescence flag).
  LinkQueueSlab<LinkState> links_;
  /// RED/ECN marking from the configured profile.
  const RedProfile red_;
  /// Links that can congest under the current flow set
  /// (congestible_links); every other link provably never queues, and the
  /// CP pass skips it wholesale.  Rebuilt on flow start/finish and on
  /// capacity changes; links still draining backlog from an earlier flow
  /// set are carried by the slab's wet list.
  std::vector<std::int32_t> cp_links_;

  // Cached per-bus counter handles (re-resolved when the bound bus changes).
  TraceBus* bus_cache_ = nullptr;
  Counter* c_cnp_ = nullptr;
  Counter* c_timer_fires_ = nullptr;
};

}  // namespace ccml
