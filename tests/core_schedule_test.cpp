#include "core/schedule.h"

#include <gtest/gtest.h>

#include "core/solver.h"

namespace ccml {
namespace {

CommProfile job(const char* name, std::int64_t period_ms,
                std::int64_t compute_ms) {
  return CommProfile::single_phase(name, Duration::millis(period_ms),
                                   Duration::millis(compute_ms),
                                   Rate::gbps(42.5));
}

TEST(FlowSchedule, SlotsMirrorRotations) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60), job("b", 100, 60)};
  const std::vector<Duration> rotations = {Duration::zero(),
                                           Duration::millis(40)};
  const FlowSchedule fs =
      make_flow_schedule(jobs, rotations, TimePoint::origin());
  ASSERT_EQ(fs.slots.size(), 2u);
  // Job a: comm starts at compute end (60 ms) with rotation 0.
  EXPECT_EQ(fs.slots[0].start_offset.to_millis(), 60.0);
  EXPECT_EQ(fs.slots[0].period.to_millis(), 100.0);
  EXPECT_EQ(fs.slots[0].job_start_offset.to_millis(), 0.0);
  // Job b: rotation 40 shifts everything: comm admitted at (40+60) mod 100.
  EXPECT_EQ(fs.slots[1].start_offset.to_millis(), 0.0);
  EXPECT_EQ(fs.slots[1].job_start_offset.to_millis(), 40.0);
}

TEST(FlowSchedule, RotationWrapsIntoPeriod) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60)};
  const std::vector<Duration> rotations = {Duration::millis(250)};
  const FlowSchedule fs =
      make_flow_schedule(jobs, rotations, TimePoint::origin());
  EXPECT_EQ(fs.slots[0].job_start_offset.to_millis(), 50.0);
  EXPECT_EQ(fs.slots[0].start_offset.to_millis(), 10.0);  // (50+60) mod 100
}

TEST(FlowSchedule, SolverRotationsProduceDisjointAdmissionWindows) {
  // End-to-end: solve, schedule, then verify the comm windows implied by the
  // slots never overlap on the unified circle.
  const std::vector<CommProfile> jobs = {job("a", 100, 55), job("b", 100, 55)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  ASSERT_TRUE(r.compatible);
  const FlowSchedule fs =
      make_flow_schedule(jobs, r.rotations, TimePoint::origin());

  CircularIntervalSet wa(Duration::millis(100)), wb(Duration::millis(100));
  wa.add(Arc{fs.slots[0].start_offset, Duration::millis(45)});
  wb.add(Arc{fs.slots[1].start_offset, Duration::millis(45)});
  EXPECT_FALSE(CircularIntervalSet::intersects(wa, wb));
}

TEST(FlowSchedule, EpochPropagates) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60)};
  const TimePoint epoch = TimePoint::origin() + Duration::seconds(3);
  const FlowSchedule fs =
      make_flow_schedule(jobs, {{Duration::zero()}}, epoch);
  EXPECT_EQ(fs.epoch, epoch);
}

TEST(FlowSchedule, GuardWindowsReflectScheduleSlack) {
  // Two jobs, period 100, comm 30 each: 40 ms of total slack.  The solver
  // spreads rotations, so each job's guard window should be ~20 ms.
  const std::vector<CommProfile> jobs = {job("a", 100, 70), job("b", 100, 70)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  ASSERT_TRUE(r.compatible);
  const FlowSchedule fs =
      make_flow_schedule(jobs, r.rotations, TimePoint::origin());
  for (const CommSlot& slot : fs.slots) {
    EXPECT_NEAR(slot.window.to_millis(), 20.0, 2.0);
  }
}

TEST(FlowSchedule, TightScheduleHasZeroWindow) {
  // Exact fit: comm 50 + 50 on a 100 ms circle leaves no slack at all.
  const std::vector<CommProfile> jobs = {job("a", 100, 50), job("b", 100, 50)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  ASSERT_TRUE(r.compatible);
  const FlowSchedule fs =
      make_flow_schedule(jobs, r.rotations, TimePoint::origin());
  for (const CommSlot& slot : fs.slots) {
    EXPECT_NEAR(slot.window.to_millis(), 0.0, 0.5);
  }
}

TEST(FlowSchedule, SoloJobWindowIsWholeCircle) {
  const std::vector<CommProfile> jobs = {job("a", 100, 60)};
  const FlowSchedule fs =
      make_flow_schedule(jobs, {{Duration::zero()}}, TimePoint::origin());
  EXPECT_EQ(fs.slots[0].window.to_millis(), 100.0);
}

TEST(SpreadSlack, RotationsKeepZeroOverlapAndBalanceGaps) {
  // Three jobs with 30 ms of comm each on a 150 ms circle: 60 ms slack,
  // spread into three ~20 ms guard bands.
  const std::vector<CommProfile> jobs = {job("a", 150, 120), job("b", 150, 120),
                                         job("c", 150, 120)};
  const SolverResult r = CompatibilitySolver().solve(jobs);
  ASSERT_TRUE(r.compatible);
  const UnifiedCircle circle(jobs);
  EXPECT_NEAR(circle.overlap_fraction(r.rotations), 0.0, 1e-12);
  const FlowSchedule fs =
      make_flow_schedule(jobs, r.rotations, TimePoint::origin());
  for (const CommSlot& slot : fs.slots) {
    EXPECT_GT(slot.window.to_millis(), 10.0);
  }
}

TEST(FlowSchedule, CommOnlyJobAdmitsAtRotation) {
  // A job with no compute (arc starts at 0) is admitted exactly at its
  // rotation.
  const std::vector<CommProfile> jobs = {job("net", 100, 0)};
  const FlowSchedule fs = make_flow_schedule(
      jobs, {{Duration::millis(30)}}, TimePoint::origin());
  EXPECT_EQ(fs.slots[0].start_offset.to_millis(), 30.0);
}

}  // namespace
}  // namespace ccml
