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
#include <vector>

#include "cc/policy/observation.h"
#include "cc/policy/rate_machine.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace ccml {

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

/// The table policy's per-flow observation-assembly state.
struct TableFlow {
  RttGradient rtt;
  double deliv_b = 0.0;    ///< bytes sent this decision epoch
  std::int32_t rule = -1;  ///< last matched rule, -1 = default
};

/// A link's queue plus its RED keep-log, log(1 - mark probability), summed
/// along routes to the per-flow ECN fraction.
struct TableLink : QueueLink {
  double log_keep = 0.0;
};

class TablePolicy final
    : public RateMachine<TablePolicy, TableLink, TableFlow> {
 public:
  explicit TablePolicy(TableConfig config);

  const char* name() const override { return "table"; }

  const TableConfig& config() const { return config_; }

 private:
  friend RateMachine;

  TableFlow start_flow(const Flow& /*flow*/) const { return {}; }
  void observe_tick(const Network& /*net*/, std::uint32_t slot,
                    double rate_bps, double dt_s) {
    flows_[slot].deliv_b += rate_bps * dt_s / 8.0;
  }
  void mark_link(TableLink& link, double cap_bps, double arrival_bps) const;
  double decide(Network& net, TimePoint now, std::uint32_t slot,
                std::int64_t elapsed_ns);
  void put_flow(StateBuf& out, const TableFlow& f,
                std::int64_t since_ns) const;
  void put_tail(StateBuf& out) const { out.put_bytes(rng_.save_state()); }
  double red_probability(double queue_bytes) const {
    if (queue_bytes <= kmin_bytes_) return 0.0;
    if (queue_bytes >= kmax_bytes_) return 1.0;
    return (queue_bytes - kmin_bytes_) * mark_scale_;
  }

  TableConfig config_;
  Rng rng_;
  double kmin_bytes_ = 0.0;
  double kmax_bytes_ = 0.0;
  double mark_scale_ = 0.0;  // pmax / (kmax - kmin), per byte
};

extern template class RateMachine<TablePolicy, TableLink, TableFlow>;

}  // namespace ccml
