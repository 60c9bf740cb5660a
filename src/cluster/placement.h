// What a cluster job asks for and where it runs (paper §4, "Placing
// compatible jobs on links").  Placement decisions belong to the online
// AdmissionController (orch/admission.h): locality-only or
// compatibility-aware, against the jobs already running.
#pragma once

#include <string>
#include <vector>

#include "core/profile.h"
#include "core/solver.h"
#include "net/routing.h"
#include "net/topology.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace ccml {

struct JobRequest {
  std::string name;
  JobProfile profile;
  int workers = 2;
  /// Profile of the job on a dedicated network; used for compatibility
  /// checks.  Filled by callers (analytic or measured).
  CommProfile comm_profile;
};

struct Placement {
  std::vector<NodeId> hosts;  ///< one per worker; empty until admitted
  bool spans_fabric = false;  ///< true when workers sit under multiple ToRs
};

/// Ring-allreduce paths for a placed job: worker i sends to worker i+1
/// (mod n).  Paths between hosts under one ToR stay rack-local; others cross
/// the fabric via ECMP.
std::vector<JobPath> ring_paths(const Topology& topo, const Router& router,
                                const std::vector<NodeId>& hosts,
                                std::uint64_t ecmp_salt);

}  // namespace ccml
