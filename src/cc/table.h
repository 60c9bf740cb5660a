// Table-driven congestion control: the pluggable endpoint of the CC-policy
// subsystem.  Where DCQCN/TIMELY/Swift/BBR hard-code their update equations,
// this transport assembles the standard CcObservation each decision epoch,
// quantizes it against externally supplied bin edges, and looks the action
// up in a rule table — the shape an offline-trained policy (the RL gyms in
// SNIPPETS.md, or a hand-written heuristic) plugs into the simulator without
// recompiling.
//
// Table text format (`--cc-policy-table FILE`, parsed by CcPolicyTable):
//
//   ccml-cc-table v1
//   # comment lines and blanks are ignored
//   cadence_us 50
//   bins rtt_us 40 80 200        # 3 edges -> bins 0..3 (upper_bound)
//   bins gradient 0
//   bins ecn 0.05 0.3
//   bins progress 0.5
//   rule 3 * * * 0.7             # rtt in top bin -> rate *= 0.7
//   rule * 1 * * 0.85            # gradient positive -> rate *= 0.85
//   default 1.0 40               # otherwise rate += 40 Mbps
//
// A rule is four bin selectors (index or `*` wildcard, dimension order
// rtt_us / gradient / ecn / progress) plus a rate multiplier and an optional
// additive step in Mbps; the first matching rule wins and `default` catches
// the rest.  Undeclared dimensions have a single bin (index 0).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
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

/// A parsed policy table: bin edges per observation dimension plus an
/// ordered rule list.  Value type; cheap to copy into TableConfig.
class CcPolicyTable {
 public:
  struct Rule {
    // Bin selector per dimension; -1 is the `*` wildcard.
    std::int32_t bins[4] = {-1, -1, -1, -1};
    CcAction action;
  };

  /// Parses the `ccml-cc-table v1` text format; throws std::invalid_argument
  /// with a line number on malformed input.
  static CcPolicyTable parse(std::istream& in);
  /// Reads and parses `path`; throws std::invalid_argument when the file
  /// cannot be opened or fails to parse.
  static CcPolicyTable load(const std::string& path);

  /// True for a default-constructed table (nothing parsed); the factory
  /// rejects building a table transport from one.
  bool empty() const { return !loaded_; }

  Duration cadence() const { return cadence_; }
  std::size_t rule_count() const { return rules_.size(); }
  const std::vector<Rule>& rules() const { return rules_; }
  const CcAction& default_action() const { return default_; }

  /// Quantizes `obs` and scans the rule list; returns the matched rule's
  /// index (its action in `out`) or -1 when the default action applied.
  std::int32_t lookup(const CcObservation& obs, CcAction& out) const;

  /// One-line shape summary, e.g. "4x2x3x2 bins, 5 rules" (diagnostics and
  /// the `ccml_sim transports` catalogue).
  std::string summary() const;

 private:
  static std::int32_t bin_of(double x, const std::vector<double>& edges);

  Duration cadence_ = Duration::micros(50);
  // Edge vectors in dimension order: rtt_us, gradient, ecn, progress.
  std::vector<double> edges_[4];
  std::vector<Rule> rules_;
  CcAction default_;
  bool loaded_ = false;
};

struct TableConfig {
  CcPolicyTable table;  ///< must be non-empty (factory-enforced)

  // Observation assembly (the same signal models the native transports use).
  Duration base_rtt = Duration::micros(20);
  double ewma_alpha = 0.46;   ///< RTT-gradient filter weight
  Bytes kmin = Bytes::kilo(50);   ///< RED profile for the ECN fraction
  Bytes kmax = Bytes::kilo(200);
  double pmax = 0.01;
  Rate min_rate = Rate::mbps(10);

  /// Epsilon-exploration: with this probability-weighted amplitude the rate
  /// multiplier is jittered by up to +/- explore (drawn from the seeded RNG
  /// stream), the knob an RL training loop uses to gather off-policy data.
  /// Zero (default) draws nothing and the transport is fully deterministic;
  /// the RNG stream is checkpointed either way.
  double explore = 0.0;
  std::uint64_t seed = 1;
};

class TablePolicy final : public BandwidthPolicy {
 public:
  explicit TablePolicy(TableConfig config);

  const char* name() const override { return "table"; }

  void on_flow_started(Network& net, Flow& flow) override;
  void on_flow_finished(Network& net, const Flow& flow) override;
  void on_link_capacity_changed(Network& net, LinkId link) override;
  void update_rates(Network& net, TimePoint now, Duration dt) override;
  /// apply_cc_action clamps to [min_rate, line_rate]; bound covers both.
  double rate_bound_bps(const Network& net, std::uint32_t slot) const override;
  Bytes link_queue(LinkId link) const override;
  /// With all queues drained nothing evolves between steps while no flow is
  /// active, so the kernel may fast-forward across compute phases.
  bool quiescent() const override { return links_.queues_clear(); }
  /// Observation-assembly state, link queues and the exploration RNG stream
  /// in ascending-flow-id order (see the BandwidthPolicy contract).
  std::string serialize_state() const override;

  const TableConfig& config() const { return config_; }

  struct FlowDiag {
    Rate rate;
    double gradient = 0.0;
    std::int32_t last_rule = -1;  ///< matched rule index, -1 = default
  };
  FlowDiag diag(FlowId id) const;

 private:
  struct LinkState {
    double queue_b = 0.0;   ///< egress backlog, bytes
    double log_keep = 0.0;  ///< log(1 - mark probability), for route ECN
    std::uint64_t stamp = 0;
  };

  void resize_soa(std::size_t n);
  double red_probability(double queue_bytes) const {
    if (queue_bytes <= kmin_bytes_) return 0.0;
    if (queue_bytes >= kmax_bytes_) return 1.0;
    return (queue_bytes - kmin_bytes_) * mark_scale_;
  }

  TableConfig config_;
  Rng rng_;
  std::unordered_map<FlowId, std::uint32_t> slots_;

  // SoA columns, slot-indexed.
  std::vector<double> rate_bps_;
  std::vector<double> line_bps_;
  std::vector<double> ewma_col_;
  std::vector<double> grad_col_;
  std::vector<double> deliv_b_;  ///< bytes sent this decision epoch
  std::vector<std::int64_t> prev_rtt_ns_;
  std::vector<std::int32_t> rule_col_;  ///< last matched rule, for diag
  DecisionCadence cadence_;  ///< shared fixed-cadence accumulator
  /// Per-link queue + marking state behind the shared two-pass step loop.
  LinkQueueSlab<LinkState> links_;
  double kmin_bytes_ = 0.0;
  double kmax_bytes_ = 0.0;
  double mark_scale_ = 0.0;  // pmax / (kmax - kmin), per byte
  // Re-resolved when the bound trace bus changes (same idiom as DCQCN).
  TraceBus* bus_cache_ = nullptr;
  Counter* c_decision_ = nullptr;
};

}  // namespace ccml
