// Online admission control: where (and whether) a newly arrived job may run.
//
// The controller owns the cluster's free-host inventory and answers one
// question per arrival: admit now (and on which hosts), or defer?  It is the
// cluster's only placement implementation, with two policies:
//  * kLocalityOnly — today's practice: admit whenever capacity exists,
//    packing under as few ToRs as possible, blind to link sharing.
//  * kCompatibilityAware — rack-local placements are always safe; spanning
//    placements are admitted only onto ToR pairs whose induced link sharing
//    the CompatibilitySolver certifies against the *incumbent* jobs (the
//    CASSINI affinity rule applied online).  Admission is strict: a link
//    left with any residual violation counts against the placement.  When no compatible pair exists
//    the job is deferred — queueing briefly beats training slowly.
//
// Deferral vs rejection is the orchestrator's call (queue capacity and
// timeout); the controller only ever says kAdmit or kDefer.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/placement.h"
#include "net/routing.h"
#include "net/topology.h"
#include "orch/resolve.h"

namespace ccml {

enum class AdmissionPolicyKind {
  kLocalityOnly,
  kCompatibilityAware,
};

const char* to_string(AdmissionPolicyKind kind);

struct AdmissionConfig {
  AdmissionPolicyKind policy = AdmissionPolicyKind::kCompatibilityAware;

  /// Deferred jobs beyond this many are rejected outright.
  int queue_capacity = 16;

  /// A deferred job still waiting after this long is rejected.
  Duration queue_timeout = Duration::seconds(30);

  /// Legacy single-bottleneck scoring: judge the newcomer's sharing
  /// component on ONE unified circle over every member, instead of per-link
  /// circles with consistent rotations.  The joint circle invents
  /// constraints between jobs that share no link, so chain components
  /// (A-link1-B-link2-C) it cannot certify are deferred even though a
  /// per-link schedule exists — the capacity the interference graph
  /// recovers.  Wired from OrchestratorConfig::CircleMode::kSingleCircle;
  /// kept for A/B comparison (bench/s6_multi_bottleneck).
  bool joint_circle = false;

  /// Fraction of a link's nominal capacity available to goodput, used when
  /// deciding whether a shared link can actually be contended (mirrors
  /// NetworkConfig::goodput_factor; wired by the orchestrator).
  double goodput_factor = 0.85;
};

/// A running job, as admission scoring sees it.
struct Incumbent {
  std::uint64_t salt = 0;             ///< its ECMP salt (diagnostics)
  const CommProfile* profile = nullptr;
  std::vector<LinkId> links;          ///< sorted links its ring traverses
};

struct AdmissionOffer {
  enum class Verdict { kAdmit, kDefer };
  Verdict verdict = Verdict::kDefer;
  Placement placement;       ///< filled (and hosts reserved) on kAdmit
  int incompatible_links = 0;  ///< for the placement chosen / best candidate
  double worst_violation = 0.0;
  /// True when the deferral is for lack of free hosts rather than for
  /// compatibility.
  bool capacity_blocked = false;
};

class AdmissionController {
 public:
  /// `topo` and `router` must outlive the controller; `resolver` is shared
  /// with the orchestrator so admission probes and gate re-solves hit one
  /// cache.
  AdmissionController(const Topology& topo, const Router& router,
                      AdmissionConfig config, IncrementalResolver& resolver);

  /// Scores the request against the incumbents.  On kAdmit the returned
  /// placement's hosts are already removed from the free inventory.
  AdmissionOffer offer(const JobRequest& request, std::uint64_t salt,
                       const std::vector<Incumbent>& incumbents);

  /// Returns a departed job's hosts to the inventory.
  void release(const std::vector<NodeId>& hosts);

  /// Sorted ids of every link the hosts' ring-allreduce traverses.
  std::vector<LinkId> job_links(const std::vector<NodeId>& hosts,
                                std::uint64_t salt) const;

  int free_host_count() const;
  const AdmissionConfig& config() const { return config_; }

  /// Switches the scoring policy mid-run (what-if branching: continue the
  /// same cluster under the other admission discipline).  Queue capacity
  /// and timeout are unchanged; the next offer() uses the new policy.
  void set_policy(AdmissionPolicyKind kind) { config_.policy = kind; }

 private:
  struct Candidate {
    std::vector<std::pair<NodeId, int>> splits;  // (tor, hosts taken)
    int incompatible_links = 0;
    double worst_violation = 0.0;
  };

  std::vector<NodeId> take(NodeId tor, int count);
  void score(Candidate& cand, const CommProfile& profile, std::uint64_t salt,
             const std::vector<Incumbent>& incumbents);

  const Topology& topo_;
  const Router& router_;
  AdmissionConfig config_;
  IncrementalResolver& resolver_;
  std::vector<NodeId> tors_;                       // construction order
  std::map<NodeId, std::vector<NodeId>> free_;     // tor -> sorted free hosts
  std::map<NodeId, NodeId> tor_of_;                // host -> tor
};

}  // namespace ccml
