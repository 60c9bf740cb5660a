// Property test of the circle sweep (core/unified_circle.h) against an
// oracle: the interval-set construction and sort-based boundary sweep the
// solver used before the sweep existed, copied here.  Every score must match
// the oracle bit for bit on seeded random job sets (1-6 jobs, mixed and
// unquantized periods, clamped circles, arcs that wrap the seam or abut,
// rotations below zero or past the period), and an incremental one-job
// re-score must equal a full re-score along random accept/reject walks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/solver.h"
#include "core/unified_circle.h"
#include "util/math.h"

namespace ccml {
namespace {

// --- Oracle ------------------------------------------------------------------

CircularIntervalSet oracle_arcs(const UnifiedCircle& circle,
                                const UnifiedCircleOptions& options,
                                std::size_t j, Duration rotation) {
  const CommProfile& job = circle.job(j);
  Duration p = quantize(job.period, options.quantum);
  if (!p.is_positive()) p = options.quantum;
  CircularIntervalSet set(circle.perimeter());
  for (std::int64_t k = 0; k < circle.repetitions(j); ++k) {
    for (const Arc& a : job.arcs) {
      set.add(Arc{a.start + rotation + p * k, a.length});
    }
  }
  return set;
}

struct Boundary {
  std::int64_t pos;
  int count_delta;
  double demand_delta;
};

std::vector<Boundary> oracle_bounds(const UnifiedCircle& circle,
                                    const UnifiedCircleOptions& options,
                                    const std::vector<Duration>& rotations) {
  std::vector<Boundary> out;
  for (std::size_t j = 0; j < circle.job_count(); ++j) {
    const double d = circle.job(j).demand.bits_per_sec();
    const CircularIntervalSet arcs =
        oracle_arcs(circle, options, j, rotations[j]);
    for (const auto& [lo, hi] : arcs.segments()) {
      out.push_back({lo.ns(), +1, d});
      out.push_back({hi.ns(), -1, -d});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Boundary& a, const Boundary& b) { return a.pos < b.pos; });
  return out;
}

double oracle_violation(const UnifiedCircle& circle,
                        const UnifiedCircleOptions& options,
                        const std::vector<Duration>& rotations,
                        const SolverOptions& opts) {
  std::int64_t violated = 0;
  int depth = 0;
  double demand = 0.0;
  std::int64_t prev = 0;
  const double cap_bps = opts.link_capacity.bits_per_sec() * (1.0 + 1e-9);
  for (const Boundary& b : oracle_bounds(circle, options, rotations)) {
    const bool bad = opts.mode == SolverOptions::Mode::kCount
                         ? depth > opts.max_concurrent
                         : demand > cap_bps;
    if (bad) violated += b.pos - prev;
    depth += b.count_delta;
    demand += b.demand_delta;
    prev = b.pos;
  }
  return static_cast<double>(violated) /
         static_cast<double>(circle.perimeter().ns());
}

double oracle_overlap(const UnifiedCircle& circle,
                      const UnifiedCircleOptions& options,
                      const std::vector<Duration>& rotations) {
  std::int64_t overlapped = 0;
  int depth = 0;
  std::int64_t prev = 0;
  for (const Boundary& b : oracle_bounds(circle, options, rotations)) {
    if (depth >= 2) overlapped += b.pos - prev;
    depth += b.count_delta;
    prev = b.pos;
  }
  return static_cast<double>(overlapped) /
         static_cast<double>(circle.perimeter().ns());
}

/// Peak depth and peak demand, sampled after every boundary position.
std::pair<int, double> oracle_peaks(const UnifiedCircle& circle,
                                    const UnifiedCircleOptions& options,
                                    const std::vector<Duration>& rotations) {
  const std::vector<Boundary> bounds =
      oracle_bounds(circle, options, rotations);
  int depth = 0;
  int peak = 0;
  double demand = 0.0;
  double peak_demand = 0.0;
  for (std::size_t i = 0; i < bounds.size();) {
    const std::int64_t pos = bounds[i].pos;
    while (i < bounds.size() && bounds[i].pos == pos) {
      depth += bounds[i].count_delta;
      demand += bounds[i].demand_delta;
      ++i;
    }
    peak = std::max(peak, depth);
    peak_demand = std::max(peak_demand, demand);
  }
  return {peak, peak_demand};
}

/// The guard-window / slack-spreading gap computation over interval sets.
SlideRoom oracle_slide_room(const UnifiedCircle& circle,
                            const UnifiedCircleOptions& options,
                            const std::vector<Duration>& rotations,
                            std::size_t j) {
  const Duration perimeter = circle.perimeter();
  CircularIntervalSet occupied(perimeter);
  for (std::size_t k = 0; k < circle.job_count(); ++k) {
    if (k == j) continue;
    occupied = CircularIntervalSet::unite(
        occupied, oracle_arcs(circle, options, k, rotations[k]));
  }
  const CircularIntervalSet mine =
      oracle_arcs(circle, options, j, rotations[j]);
  SlideRoom room{perimeter, perimeter};
  if (occupied.empty() || mine.empty()) return room;
  for (const auto& [mlo, mhi] : mine.segments()) {
    for (const auto& [olo, ohi] : occupied.segments()) {
      room.forward =
          std::min(room.forward, wrap_to_circle(olo - mhi, perimeter));
      room.backward =
          std::min(room.backward, wrap_to_circle(mlo - ohi, perimeter));
    }
  }
  return room;
}

// --- Random instances --------------------------------------------------------

struct Instance {
  std::vector<CommProfile> jobs;
  UnifiedCircleOptions options;
};

std::int64_t pick(std::mt19937_64& rng, std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
}

Instance random_instance(std::mt19937_64& rng) {
  static constexpr std::int64_t kPeriodsMs[] = {10, 15, 20, 30, 40,
                                                45, 60, 90, 120, 150};
  static constexpr std::int64_t kCapsMs[] = {50, 100, 360, 1000, 2000};
  static constexpr std::int64_t kQuantaUs[] = {1000, 500, 1};
  Instance inst;
  inst.options.perimeter_cap = Duration::millis(kCapsMs[pick(rng, 0, 4)]);
  inst.options.quantum = Duration::micros(kQuantaUs[pick(rng, 0, 2)]);
  const auto n = static_cast<std::size_t>(pick(rng, 1, 6));
  for (std::size_t j = 0; j < n; ++j) {
    CommProfile p;
    p.name = "j" + std::to_string(j);
    p.period = Duration::millis(kPeriodsMs[pick(rng, 0, 9)]);
    // Unquantized periods: the circle repeats the quantized one.
    if (pick(rng, 0, 2) == 0) {
      p.period += Duration::nanos(pick(rng, 1, 999'999));
    }
    // Integral demands, so demand sums are exact in any order.
    p.demand = Rate::bps(static_cast<double>(pick(rng, 1, 40)) * 2.5e9);
    const std::int64_t P = p.period.ns();
    const int arcs = static_cast<int>(pick(rng, 0, 4));
    std::int64_t budget = P;
    // Start anywhere, below zero included; arcs may wrap the period's seam.
    std::int64_t cursor = pick(rng, -P / 2, P - 1);
    for (int a = 0; a < arcs && budget > 0; ++a) {
      // Gaps are zero a third of the time: abutting arcs.
      if (pick(rng, 0, 2) != 0) {
        cursor += pick(rng, 1, std::max<std::int64_t>(1, P / 4));
      }
      // Occasionally the whole remaining budget (full-period coverage).
      const std::int64_t len =
          pick(rng, 0, 5) == 0
              ? budget
              : pick(rng, 1, std::max<std::int64_t>(1, budget / 2));
      p.arcs.push_back(Arc{Duration::nanos(cursor), Duration::nanos(len)});
      cursor += len;
      budget -= len;
    }
    inst.jobs.push_back(std::move(p));
  }
  return inst;
}

Duration random_rotation(std::mt19937_64& rng, const CommProfile& job,
                         Duration perimeter) {
  const std::int64_t P = job.period.ns();
  switch (pick(rng, 0, 4)) {
    case 0:
      return Duration::zero();
    case 1:
      return Duration::nanos(-pick(rng, 1, 3 * P));  // negative
    case 2:
      return Duration::nanos(pick(rng, P, 5 * P));  // past the period
    case 3:
      return Duration::nanos(pick(rng, 0, perimeter.ns()));
    default:
      return Duration::nanos(pick(rng, 0, P - 1));
  }
}

std::vector<CircleSegment> as_segments(const CircularIntervalSet& set) {
  std::vector<CircleSegment> out;
  for (const auto& [lo, hi] : set.segments()) {
    out.push_back({lo.ns(), hi.ns()});
  }
  return out;
}

SolverOptions count_mode(int cap) {
  SolverOptions o;
  o.mode = SolverOptions::Mode::kCount;
  o.max_concurrent = cap;
  return o;
}

SolverOptions bandwidth_mode(double capacity_gbps) {
  SolverOptions o;
  o.mode = SolverOptions::Mode::kBandwidth;
  o.link_capacity = Rate::gbps(capacity_gbps);
  return o;
}

// --- Properties --------------------------------------------------------------

TEST(CircleSweep, MatchesOracleOnRandomJobSets) {
  std::mt19937_64 rng(20221);
  int clamped = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Instance inst = random_instance(rng);
    const UnifiedCircle circle(inst.jobs, inst.options);
    if (!circle.exact()) ++clamped;
    for (int draw = 0; draw < 4; ++draw) {
      std::vector<Duration> rot;
      for (const CommProfile& job : inst.jobs) {
        rot.push_back(random_rotation(rng, job, circle.perimeter()));
      }
      SCOPED_TRACE("trial " + std::to_string(trial) + " draw " +
                   std::to_string(draw));
      std::vector<CircleSegment> segs;
      for (std::size_t j = 0; j < inst.jobs.size(); ++j) {
        segs.clear();
        circle.rotated_segments(j, rot[j], segs);
        EXPECT_EQ(segs,
                  as_segments(oracle_arcs(circle, inst.options, j, rot[j])));
        const SlideRoom want = oracle_slide_room(circle, inst.options, rot, j);
        const SlideRoom got = circle.slide_room(rot, j);
        EXPECT_EQ(got.forward, want.forward);
        EXPECT_EQ(got.backward, want.backward);
      }
      for (const SolverOptions& o :
           {count_mode(1), count_mode(2), bandwidth_mode(50.0),
            bandwidth_mode(85.0)}) {
        EXPECT_EQ(circle_violation_fraction(circle, rot, o),
                  oracle_violation(circle, inst.options, rot, o));
      }
      EXPECT_EQ(circle.overlap_fraction(rot),
                oracle_overlap(circle, inst.options, rot));
      const auto [peak, peak_demand] =
          oracle_peaks(circle, inst.options, rot);
      EXPECT_EQ(circle.max_concurrency(rot), peak);
      EXPECT_EQ(circle.peak_demand(rot).bits_per_sec(), peak_demand);
    }
  }
  // The generator must actually reach clamped circles.
  EXPECT_GT(clamped, 30);
}

TEST(CircleSweep, IncrementalRescoreEqualsFullRescore) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 120; ++trial) {
    const Instance inst = random_instance(rng);
    const UnifiedCircle circle(inst.jobs, inst.options);
    for (const SolverOptions& o :
         {count_mode(1), count_mode(2), bandwidth_mode(50.0)}) {
      CircleScorer incremental(circle, violation_limit(o));
      std::vector<Duration> rot;
      for (const CommProfile& job : inst.jobs) {
        rot.push_back(random_rotation(rng, job, circle.perimeter()));
      }
      for (int step = 0; step < 60; ++step) {
        const auto j = static_cast<std::size_t>(
            pick(rng, 0, static_cast<std::int64_t>(inst.jobs.size()) - 1));
        const Duration old = rot[j];
        rot[j] = random_rotation(rng, inst.jobs[j], circle.perimeter());
        CircleScorer full(circle, violation_limit(o));
        const std::int64_t want = full.violated_ns(rot);
        ASSERT_EQ(incremental.violated_ns(rot, j), want)
            << "trial " << trial << " step " << step;
        EXPECT_EQ(static_cast<double>(want) /
                      static_cast<double>(circle.perimeter().ns()),
                  oracle_violation(circle, inst.options, rot, o));
        if (pick(rng, 0, 1) == 0) rot[j] = old;  // rejected move
      }
      EXPECT_EQ(incremental.evaluations(), 60u);
    }
  }
}

TEST(CircleSweep, FullCircleAndEmptyJobs) {
  // A job communicating its whole period covers the circle at any rotation;
  // a job without arcs contributes nothing.
  CommProfile full = CommProfile::single_phase(
      "full", Duration::millis(40), Duration::zero(), Rate::gbps(10));
  CommProfile idle;
  idle.name = "idle";
  idle.period = Duration::millis(60);
  idle.demand = Rate::gbps(10);
  const std::vector<CommProfile> jobs = {full, idle};
  const UnifiedCircle circle(jobs);
  std::vector<CircleSegment> segs;
  circle.rotated_segments(0, Duration::millis(-7), segs);
  EXPECT_EQ(segs,
            (std::vector<CircleSegment>{{0, circle.perimeter().ns()}}));
  segs.clear();
  circle.rotated_segments(1, Duration::millis(13), segs);
  EXPECT_TRUE(segs.empty());
  const std::vector<Duration> rot = {Duration::millis(3), Duration::zero()};
  EXPECT_EQ(circle.max_concurrency(rot), 1);
  EXPECT_EQ(circle.overlap_fraction(rot), 0.0);
  const SlideRoom room = circle.slide_room(rot, 0);
  EXPECT_EQ(room.forward, circle.perimeter());
  EXPECT_EQ(room.backward, circle.perimeter());
}

}  // namespace
}  // namespace ccml
