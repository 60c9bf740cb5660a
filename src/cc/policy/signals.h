// The signal models the reactive transports share, defined once: the
// propagation part of every RTT sample, the rate floor every decision
// clamps to, the RTT-gradient filter weight, and the RED/ECN marking
// profile.  DCQCN reads the floor and (through its config's defaults) the
// RED profile; TIMELY, Swift, BBR-lite and the table policy read the rest
// through the rate-machine scaffold (rate_machine.h).
#pragma once

#include "util/time.h"
#include "util/units.h"

namespace ccml {

/// Propagation base of every sampled RTT (TIMELY, Swift, BBR, table).
inline constexpr Duration kBaseRtt = Duration::micros(20);

/// Rate floor: every rate-machine decision clamps to it, and a DCQCN
/// decrease floors R_C at it, so no flow starves entirely.
inline constexpr Rate kRateFloor = Rate::mbps(10);

/// EWMA weight of TIMELY's RTT-gradient filter (RttGradient), which Swift
/// and the table policy reuse.
inline constexpr double kGradientEwma = 0.46;

/// The RED/ECN marking profile: probability 0 up to kmin, rising linearly
/// to pmax at kmax, then 1.  DCQCN's marking defaults to it (a test sweeps
/// other profiles); the table policy's ECN signal always uses it.
inline constexpr Bytes kRedKmin = Bytes::kilo(50);
inline constexpr Bytes kRedKmax = Bytes::kilo(200);
inline constexpr double kRedPmax = 0.01;

/// RED marking probability for a queue, with the slope precomputed.
class RedProfile {
 public:
  constexpr RedProfile(Bytes kmin, Bytes kmax, double pmax)
      : kmin_bytes_(kmin.count()),
        kmax_bytes_(kmax.count()),
        mark_scale_(pmax / (kmax_bytes_ - kmin_bytes_)) {}

  double probability(double queue_bytes) const {
    if (queue_bytes <= kmin_bytes_) return 0.0;
    if (queue_bytes >= kmax_bytes_) return 1.0;
    return (queue_bytes - kmin_bytes_) * mark_scale_;
  }

 private:
  double kmin_bytes_;
  double kmax_bytes_;
  double mark_scale_;  // pmax / (kmax - kmin), per byte
};

}  // namespace ccml
