#include "core/schedule.h"

#include <algorithm>
#include <cassert>

#include "core/unified_circle.h"

namespace ccml {

FlowSchedule make_flow_schedule(std::span<const CommProfile> jobs,
                                std::span<const Duration> rotations,
                                TimePoint epoch) {
  assert(jobs.size() == rotations.size());
  FlowSchedule schedule;
  schedule.epoch = epoch;
  schedule.slots.reserve(jobs.size());
  const UnifiedCircle circle(jobs);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CommProfile& job = jobs[j];
    assert(job.valid());
    const Duration first_arc =
        job.arcs.empty() ? Duration::zero() : job.arcs.front().start;
    CommSlot slot;
    slot.period = job.period;
    slot.job_start_offset = wrap_to_circle(rotations[j], job.period);
    slot.start_offset =
        wrap_to_circle(slot.job_start_offset + first_arc, job.period);
    for (const Arc& arc : job.arcs) {
      slot.phase_offsets.push_back(
          wrap_to_circle(slot.job_start_offset + arc.start, job.period));
    }
    // Guard window: the forward gap to the next arc of any other job.
    slot.window = circle.slide_room(rotations, j).forward;
    schedule.slots.push_back(slot);
  }
  return schedule;
}

FlowSchedule make_graph_flow_schedule(std::span<const GraphJob> jobs,
                                      const GraphResult& result,
                                      TimePoint epoch) {
  assert(result.rotations.size() == jobs.size());
  FlowSchedule schedule;
  schedule.epoch = epoch;
  schedule.slots.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CommProfile& job = jobs[j].profile;
    assert(job.valid());
    const Duration rotation = wrap_to_circle(result.rotations[j], job.period);
    const Duration first_arc =
        job.arcs.empty() ? Duration::zero() : job.arcs.front().start;
    CommSlot slot;
    slot.period = job.period;
    slot.job_start_offset = rotation;
    slot.start_offset = wrap_to_circle(rotation + first_arc, job.period);
    for (const Arc& arc : job.arcs) {
      slot.phase_offsets.push_back(
          wrap_to_circle(rotation + arc.start, job.period));
    }
    slot.window = job.period;  // tightened below, per contended link
    schedule.slots.push_back(slot);
  }
  // One circle per shared link: each member's window is the min over its
  // links of the local guard gap under the globally consistent rotations.
  for (const LinkVerdict& v : result.links) {
    std::vector<CommProfile> profiles;
    std::vector<Duration> rotations;
    profiles.reserve(v.jobs.size());
    rotations.reserve(v.jobs.size());
    for (const std::size_t j : v.jobs) {
      profiles.push_back(jobs[j].profile);
      rotations.push_back(
          wrap_to_circle(result.rotations[j], jobs[j].profile.period));
    }
    const UnifiedCircle circle(profiles);
    for (std::size_t k = 0; k < v.jobs.size(); ++k) {
      CommSlot& slot = schedule.slots[v.jobs[k]];
      slot.window =
          std::min(slot.window, circle.slide_room(rotations, k).forward);
    }
  }
  return schedule;
}

}  // namespace ccml
