#include "cc/policy/registry.h"

#include <cassert>

namespace ccml {

namespace {

// "fixed" marks a named constant of the transport's code (the shared
// signal models in cc/policy/signals.h among them); anything else names
// where a caller sets the value.
constexpr TransportParameter kDcqcnParameters[] = {
    {"kmin/kmax/pmax", "50KB/200KB/0.01", "DcqcnConfig",
     "RED/ECN marking profile"},
    {"cnp_interval", "50us", "DcqcnConfig",
     "minimum gap between a flow's CNPs"},
    {"timer", "125us", "DcqcnConfig, FlowSpec::cc_timer",
     "RP increase timer T"},
    {"rai", "40Mbps", "FlowSpec::cc_rai", "additive step R_AI"},
    {"deterministic_marking", "true", "DcqcnConfig",
     "expected-marks CNPs vs Bernoulli"},
    {"seed", "1", "DcqcnConfig", "Bernoulli marking stream"},
    {"byte_counter", "10MB", "fixed", "RP increase byte counter B"},
    {"rhai", "200Mbps", "fixed", "hyper-increase step R_HAI"},
    {"fast_recovery_rounds", "5", "fixed", "fast-recovery rounds F"},
    {"g", "1/256", "fixed", "alpha EWMA gain"},
    {"alpha_update", "55us", "fixed", "alpha decay period"},
    {"mtu", "1KB", "fixed", "packet size behind the marking intensity"},
    {"rate floor", "10Mbps", "fixed", "floor of a decrease"},
};

constexpr TransportParameter kTimelyParameters[] = {
    {"delta", "10Mbps", "FlowSpec::cc_rai", "additive step"},
    {"t_low/t_high", "50us/500us", "fixed",
     "RTT thresholds bracketing gradient mode"},
    {"beta", "0.8", "fixed", "multiplicative-decrease factor"},
    {"hai_threshold", "5", "fixed", "good rounds before hyper increase"},
    {"update_interval", "25us", "fixed", "decision cadence"},
    {"ewma_alpha", "0.46", "fixed", "RTT-gradient filter weight"},
    {"base_rtt/rate floor", "20us/10Mbps", "fixed",
     "RTT propagation base / decision floor"},
};

constexpr TransportParameter kSwiftParameters[] = {
    {"ai", "20Mbps", "FlowSpec::cc_rai", "additive step"},
    {"update_interval", "25us", "SwiftConfig", "decision cadence"},
    {"target_jitter_us", "0", "SwiftConfig",
     "random target jitter (seeded RNG stream)"},
    {"seed", "1", "SwiftConfig", "target-jitter stream"},
    {"target_delay", "60us", "fixed", "absolute end-to-end RTT target"},
    {"beta", "0.8", "fixed", "decrease aggressiveness"},
    {"max_mdf", "0.5", "fixed", "max multiplicative decrease per decision"},
    {"ewma_alpha", "0.46", "fixed", "RTT-gradient filter weight"},
    {"base_rtt/rate floor", "20us/10Mbps", "fixed",
     "RTT propagation base / decision floor"},
};

constexpr TransportParameter kBbrParameters[] = {
    {"update_interval", "50us", "FlowSpec::cc_timer", "decision cadence"},
    {"seed", "1", "BbrConfig", "per-flow PROBE_BW cycle-offset stream"},
    {"startup_gain/drain_gain", "2.0/0.5", "fixed",
     "STARTUP / DRAIN pacing gains"},
    {"probe_up_gain/probe_down_gain", "1.25/0.75", "fixed",
     "PROBE_BW cycle gains"},
    {"startup_growth/startup_full_rounds", "1.25/3", "fixed",
     "STARTUP exit: growth that resets the count / rounds without it"},
    {"bw_window_rounds", "8", "fixed",
     "bandwidth max-filter window, in decisions"},
    {"min_rtt_window", "10ms", "fixed", "min-RTT staleness before PROBE_RTT"},
    {"probe_rtt_duration", "200us", "fixed", "PROBE_RTT hold"},
    {"base_rtt/rate floor", "20us/10Mbps", "fixed",
     "RTT propagation base / decision floor"},
};

constexpr TransportParameter kTableParameters[] = {
    {"table", "(required)", "--cc-policy-table FILE",
     "ccml-cc-table v1 format"},
    {"cadence_us", "50", "the table", "decision cadence"},
    {"explore", "0", "TableConfig",
     "epsilon multiplier jitter (seeded RNG stream)"},
    {"seed", "1", "TableConfig", "exploration stream"},
    {"kmin/kmax/pmax", "50KB/200KB/0.01", "fixed",
     "RED profile for the ECN signal"},
    {"ewma_alpha", "0.46", "fixed", "RTT-gradient filter weight"},
    {"base_rtt/rate floor", "20us/10Mbps", "fixed",
     "RTT propagation base / decision floor"},
};

constexpr TransportParameter kNoParameters[] = {
    {"(none)", "-", "-", "ideal allocator; no queue dynamics"},
};

const TransportInfo kCatalogue[] = {
    {PolicyKind::kMaxMinFair, "maxmin", "ideal",
     "instantaneous max-min fair shares (progressive water-fill)", 1.0, false,
     kNoParameters},
    {PolicyKind::kWfq, "wfq", "ideal",
     "weighted fair shares (FlowSpec::weight)", 1.0, false, kNoParameters},
    {PolicyKind::kPriority, "priority", "ideal",
     "strict priority classes, fair within a class", 1.0, false, kNoParameters},
    {PolicyKind::kDcqcn, "dcqcn", "ecn",
     "ECN-driven RP/CP rate machine (Zhu et al., SIGCOMM '15)", 1.0, true,
     kDcqcnParameters},
    {PolicyKind::kDcqcnAdaptive, "dcqcn-adaptive", "ecn",
     "DCQCN with R_AI scaled by comm-phase progress (paper §4)", 1.0, true,
     kDcqcnParameters},
    {PolicyKind::kTimely, "timely", "delay",
     "RTT-gradient rate control (Mittal et al., SIGCOMM '15)", 1.0, true,
     kTimelyParameters},
    {PolicyKind::kSwift, "swift", "delay",
     "absolute delay-target control with gradient scaling (SIGCOMM '20)", 1.0,
     true, kSwiftParameters},
    {PolicyKind::kBbr, "bbr", "model",
     "delivery-rate / min-RTT model with probing state machine", 0.97, false,
     kBbrParameters},
    {PolicyKind::kTable, "table", "table",
     "externally-trained observation->action lookup (--cc-policy-table)", 1.0,
     false, kTableParameters},
    {PolicyKind::kMltcpDcqcn, "mltcp-dcqcn", "ecn",
     "MLTCP wrap of dcqcn (alias of dcqcn-adaptive's R_AI scaling)", 1.0,
     false, kDcqcnParameters},
    {PolicyKind::kMltcpTimely, "mltcp-timely", "delay",
     "MLTCP wrap of timely: delta scaled by phase progress", 1.0, false,
     kTimelyParameters},
    {PolicyKind::kMltcpSwift, "mltcp-swift", "delay",
     "MLTCP wrap of swift: AI step scaled by phase progress", 1.0, false,
     kSwiftParameters},
};

}  // namespace

std::span<const TransportInfo> transport_catalogue() { return kCatalogue; }

const TransportInfo& transport_info(PolicyKind kind) {
  for (const TransportInfo& t : kCatalogue) {
    if (t.kind == kind) return t;
  }
  assert(false && "PolicyKind missing from the transport catalogue");
  return kCatalogue[0];
}

std::string registered_transport_names() {
  std::string names;
  for (const TransportInfo& t : kCatalogue) {
    if (!names.empty()) names += ", ";
    names += t.name;
  }
  return names;
}

double transport_goodput_derating(PolicyKind kind) {
  return transport_info(kind).goodput_derating;
}

}  // namespace ccml
