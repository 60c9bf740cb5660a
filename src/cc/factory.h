// Convenience constructors for the policies used throughout benches and
// examples, plus the TransportConfig bundle the scenario/orchestrator layers
// thread through to whichever transport a run selects.
#pragma once

#include <memory>
#include <string>

#include "cc/bbr.h"
#include "cc/dcqcn.h"
#include "cc/swift.h"
#include "cc/table.h"
#include "cc/timely.h"
#include "net/policy.h"

namespace ccml {

enum class PolicyKind {
  // Ideal allocators (no queue dynamics).
  kMaxMinFair,
  kWfq,
  kPriority,
  // Reactive transports (src/cc, the zoo).
  kDcqcn,
  kDcqcnAdaptive,
  kTimely,
  kSwift,
  kBbr,
  kTable,
  // MLTCP-style window scaling (paper §4, direction (i)) as a wrapper over
  // a base transport: every additive-increase step is multiplied by
  // (1 + bytes_sent / phase_bytes).  kMltcpDcqcn is DCQCN's adaptive_rai
  // under its wrapper name; the others set the base's phase_scaling flag.
  kMltcpDcqcn,
  kMltcpTimely,
  kMltcpSwift,
};

const char* to_string(PolicyKind kind);

/// One bundle with every transport family's settable values; make_policy
/// picks the member matching `kind` and ignores the rest, so call sites
/// configure any transport without caring which one the run selects.
struct TransportConfig {
  DcqcnConfig dcqcn;
  TimelyConfig timely;
  SwiftConfig swift;
  BbrConfig bbr;
  TableConfig table;
};

/// Builds a policy from the matching member of `transports`.  Throws
/// std::invalid_argument for kTable with an empty (unloaded) table.
std::unique_ptr<BandwidthPolicy> make_policy(
    PolicyKind kind, const TransportConfig& transports = {});

/// Parses a registered transport name (cc/policy/registry.h lists them).
/// Throws std::invalid_argument naming every registered transport on
/// unknown input.
PolicyKind parse_policy_kind(const std::string& name);

}  // namespace ccml
