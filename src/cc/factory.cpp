#include "cc/factory.h"

#include <stdexcept>

#include "cc/max_min_fair.h"
#include "cc/policy/registry.h"
#include "cc/priority.h"
#include "cc/wfq.h"

namespace ccml {

const char* to_string(PolicyKind kind) { return transport_info(kind).name; }

std::unique_ptr<BandwidthPolicy> make_policy(
    PolicyKind kind, const TransportConfig& transports) {
  switch (kind) {
    case PolicyKind::kMaxMinFair:
      return std::make_unique<MaxMinFairPolicy>();
    case PolicyKind::kWfq:
      return std::make_unique<WfqPolicy>();
    case PolicyKind::kPriority:
      return std::make_unique<PriorityPolicy>();
    case PolicyKind::kDcqcn: {
      DcqcnConfig cfg = transports.dcqcn;
      cfg.adaptive_rai = false;
      return std::make_unique<DcqcnPolicy>(cfg);
    }
    case PolicyKind::kDcqcnAdaptive: {
      DcqcnConfig cfg = transports.dcqcn;
      cfg.adaptive_rai = true;
      return std::make_unique<DcqcnPolicy>(cfg);
    }
    case PolicyKind::kTimely: {
      TimelyConfig cfg = transports.timely;
      cfg.phase_scaling = false;
      return std::make_unique<TimelyPolicy>(cfg);
    }
    case PolicyKind::kSwift: {
      SwiftConfig cfg = transports.swift;
      cfg.phase_scaling = false;
      return std::make_unique<SwiftPolicy>(cfg);
    }
    case PolicyKind::kBbr:
      return std::make_unique<BbrPolicy>(transports.bbr);
    case PolicyKind::kTable:
      if (transports.table.table.empty()) {
        throw std::invalid_argument(
            "table transport needs a policy table (--cc-policy-table FILE)");
      }
      return std::make_unique<TablePolicy>(transports.table);
    // The MLTCP wrapper multiplies a base transport's additive-increase step
    // by (1 + bytes_sent / phase_bytes).  For DCQCN that is exactly the
    // adaptive_rai machine; for TIMELY and Swift it is their phase_scaling
    // flag.  BBR has no additive step to scale, so no mltcp-bbr exists.
    case PolicyKind::kMltcpDcqcn: {
      DcqcnConfig cfg = transports.dcqcn;
      cfg.adaptive_rai = true;
      return std::make_unique<DcqcnPolicy>(cfg);
    }
    case PolicyKind::kMltcpTimely: {
      TimelyConfig cfg = transports.timely;
      cfg.phase_scaling = true;
      return std::make_unique<TimelyPolicy>(cfg);
    }
    case PolicyKind::kMltcpSwift: {
      SwiftConfig cfg = transports.swift;
      cfg.phase_scaling = true;
      return std::make_unique<SwiftPolicy>(cfg);
    }
  }
  throw std::invalid_argument("unknown policy kind");
}

PolicyKind parse_policy_kind(const std::string& name) {
  for (const TransportInfo& t : transport_catalogue()) {
    if (name == t.name) return t.kind;
  }
  throw std::invalid_argument("unknown transport '" + name +
                              "' (registered: " + registered_transport_names() +
                              ")");
}

}  // namespace ccml
