// The transport catalogue: one static record per registered PolicyKind, so
// error messages, the `ccml_sim transports` subcommand, docs tooling and the
// orchestrator's profile-compatibility derivation all read the same list.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "cc/factory.h"

namespace ccml {

/// One parameter of a transport's model, with its value and who may set
/// it.
struct TransportParameter {
  const char* name;     ///< e.g. "timer"
  const char* value;    ///< default or fixed value, e.g. "125us"
  const char* set_by;   ///< "fixed", or the config/flow field that sets it
  const char* meaning;  ///< one-line description
};

/// Static metadata for one registered transport.
struct TransportInfo {
  PolicyKind kind;
  const char* name;     ///< the parse_policy_kind spelling
  const char* family;   ///< "ideal" | "ecn" | "delay" | "model" | "table"
  const char* summary;  ///< one-line catalogue entry
  /// Fraction of nominal NIC goodput the orchestrator's admission model
  /// assumes this transport sustains (1.0 = no derating).  Model-based
  /// probing (BBR) periodically paces above/below the bottleneck, costing a
  /// small steady-state fraction; every reactive AIMD transport here
  /// converges to the full rate.
  double goodput_derating;
  /// Whether an MLTCP-scaled variant exists (the transport has an additive
  /// increase step the wrapper can multiply).
  bool mltcp_wrappable;
  std::span<const TransportParameter> parameters;
};

/// Every registered transport, in PolicyKind order.
std::span<const TransportInfo> transport_catalogue();

/// The catalogue row for `kind`.
const TransportInfo& transport_info(PolicyKind kind);

/// Comma-separated registered names ("maxmin, wfq, ..."), for error text.
std::string registered_transport_names();

/// transport_info(kind).goodput_derating — the orchestrator multiplies its
/// admission goodput factor by this, so profile compatibility is derived
/// per transport rather than assuming DCQCN everywhere.
double transport_goodput_derating(PolicyKind kind);

}  // namespace ccml
