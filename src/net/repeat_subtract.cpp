#include "net/repeat_subtract.h"

#include <bit>
#include <cmath>

namespace ccml {

namespace {

constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;
constexpr std::uint64_t kLowM = std::uint64_t{1} << 52;       // binade bottom
constexpr std::uint64_t kHighM = (std::uint64_t{1} << 53) - 1;  // binade top
constexpr double kTwo52 = 4503599627370496.0;                  // 2^52

// Steps of `r -= d` that one integer update covers from `r`'s bits, and the
// update itself: the significand after those steps (unchanged when r is a
// fixed point).  Returns 0 steps when the next step needs a real
// subtraction.
struct Segment {
  std::uint64_t steps = 0;
  std::uint64_t m_after = 0;
};

Segment segment(std::uint64_t bits, double d, std::uint64_t times) {
  const unsigned biased = static_cast<unsigned>((bits >> 52) & 0x7ff);
  // r zero, subnormal or non-finite, or d zero or non-finite.
  if (biased == 0 || biased == 0x7ff || !std::isfinite(d) || d == 0.0) {
    return {};
  }
  // u = 2^(biased - 1075), built from its bits: normal above biased 52,
  // subnormal (a single mantissa bit) at or below.
  const std::uint64_t u_bits = biased > 52
                                   ? std::uint64_t{biased - 52} << 52
                                   : std::uint64_t{1} << (biased - 1);
  const double u = std::bit_cast<double>(u_bits);
  // Exact division by a power of two, unless it overflows (then q is inf
  // and fails the range check) or underflows (then q < 2^-1022, below 1/2
  // either way, which is all the classification below reads of it).
  const double q = std::fabs(d) / u;
  if (!(q < kTwo52)) return {};
  const std::uint64_t m = (bits & kFracMask) | kLowM;
  const double floor_q = std::floor(q);
  // 0 <= floor_q < 2^52: the conversion is in range.
  const std::uint64_t f = static_cast<std::uint64_t>(floor_q);
  const double frac = q - floor_q;  // exact
  const bool tie = frac == 0.5;
  if (tie && (m & 1) != 0) return {};
  // Ulps every step moves M: round(q), and at a tie the even neighbour.
  const std::uint64_t step =
      frac < 0.5 ? f : (frac > 0.5 ? f + 1 : f + (f & 1));
  const std::uint64_t ceil_q = frac > 0.0 ? f + 1 : f;
  // Same signs shrink |r| (M falls), opposite signs grow it (M rises).
  const bool shrink = std::signbit(std::bit_cast<double>(bits)) ==
                      std::signbit(d);
  if (step == 0) {
    // Every step rounds back to r (|d| below half an ulp, or exactly half
    // an ulp with M even), except that at the binade bottom a shrinking
    // step lands in the finer binade below.
    if (shrink && m == kLowM) return {};
    return {times, m};
  }
  // Step i stays in the binade while M_i -/+ q keeps M within [2^52,
  // 2^53 - 1]; with integer M that is M_i - 2^52 >= ceil(q) (shrinking) or
  // 2^53 - 1 - M_i >= ceil(q) (growing).
  const std::uint64_t room = shrink ? m - kLowM : kHighM - m;
  if (room < ceil_q) return {};
  std::uint64_t s = (room - ceil_q) / step + 1;
  if (s > times) s = times;
  return {s, shrink ? m - s * step : m + s * step};
}

}  // namespace

double repeat_subtract(double r, double d, std::uint64_t times,
                       std::uint64_t& ops) {
  while (times > 0) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(r);
    const Segment seg = segment(bits, d, times);
    ++ops;
    if (seg.steps > 0) {
      r = std::bit_cast<double>((bits & ~kFracMask) |
                                (seg.m_after & kFracMask));
      times -= seg.steps;
      continue;
    }
    const double next = r - d;
    --times;
    // A step that leaves r's bits unchanged leaves them unchanged forever.
    if (std::bit_cast<std::uint64_t>(next) == bits) break;
    r = next;
  }
  return r;
}

}  // namespace ccml
