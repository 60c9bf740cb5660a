// Closed form for a loop of identical floating-point subtractions.
//
// A frozen burst (every rate constant, no flow able to finish) advances each
// flow's remaining bytes by `rem -= rate * dt_s / 8.0` once per tick.
// repeat_subtract() gives the value that loop leaves after any number of
// ticks, bit for bit, at a cost of a few operations per binade crossed
// instead of one per tick.  Network::advance_frozen applies it per flow.
//
// The rule (docs/performance.md, "Frozen bursts in closed form"): write a
// normal r as M * u, where u is the ulp of r's binade and 2^52 <= M < 2^53,
// and let q = |d| / u, which is exact.  While a step's exact result stays in
// r's binade, rounding to nearest gives M -/+ round(q) ulps, the same
// integer D on every step, so s steps are one integer update M -/+ s * D.
// At a tie (q has fraction exactly 1/2) round-half-even picks by parity: an
// even M moves by the even neighbour of q, which keeps M even, so only an
// odd M needs a real step.  A step that could leave the binade, a zero,
// subnormal or non-finite value, and q >= 2^52 take one real subtraction.
#pragma once

#include <cstdint>

namespace ccml {

/// Returns what `times` rounds of `r -= d` leave in `r`, bit for bit, under
/// the default round-to-nearest-even mode.  Adds to `ops` the number of
/// floating-point operations it executed: one per integer segment and one
/// per real subtraction.
double repeat_subtract(double r, double d, std::uint64_t times,
                       std::uint64_t& ops);

}  // namespace ccml
