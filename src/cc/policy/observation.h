// The observation -> action vocabulary of the pluggable CC-policy subsystem.
//
// Every transport in src/cc decides at a fixed cadence (policy/rate_machine.h)
// from the same small observation vector, and its decision is expressible as
// a rate action.  The built-in machines (DCQCN, TIMELY, Swift, BBR-lite)
// compute their decisions natively for speed, but the vocabulary is what
// makes the subsystem pluggable: the table-driven transport (cc/table.h)
// consumes a CcObservation verbatim and looks a CcAction up in an
// externally-trained policy table, and Swift routes its whole kernel through
// swift_decide(obs, ...) so the decision function is a pure observation ->
// action map shared bit-for-bit by its kernel and the scalar test oracle
// (tests/cc_kernel_parity_test.cpp).
//
// The field set mirrors the RL gym interface sketched in SNIPPETS.md
// (CongestionControlEnv / DistRLCC): delay, delay gradient, marking
// pressure, delivery, and the MLTCP phase-progress signal.
#pragma once

namespace ccml {

/// One decision epoch's worth of congestion signals for one flow.
struct CcObservation {
  /// Sampled end-to-end RTT: propagation base plus the queueing delay of
  /// every link on the route, in microseconds.
  double rtt_us = 0.0;
  /// EWMA-smoothed RTT difference per decision, normalized by the base RTT
  /// (TIMELY's dimensionless gradient; positive = queues growing).
  double rtt_gradient = 0.0;
  /// Probability that a packet crossing the route is ECN-marked under the
  /// RED profile, in [0, 1].  Zero for transports without marking state.
  double ecn_fraction = 0.0;
  /// Bytes delivered (progress made) since the previous decision.
  double delivered_bytes = 0.0;
  /// Bytes sent this communication phase over the phase's total — the
  /// MLTCP scaling signal; each flow carries one comm phase, so this is
  /// flow progress in [0, 1].
  double phase_progress = 0.0;
};

/// A rate action: new_rate = rate * rate_multiplier + additive_bps, then
/// clamped to the transport's [min_rate, line_rate] envelope.
struct CcAction {
  double rate_multiplier = 1.0;
  double additive_bps = 0.0;
};

/// Applies `action` to `rate_bps` inside the [min_bps, max_bps] envelope.
inline double apply_cc_action(const CcAction& action, double rate_bps,
                              double min_bps, double max_bps) {
  double r = rate_bps * action.rate_multiplier + action.additive_bps;
  if (r < min_bps) r = min_bps;
  if (r > max_bps) r = max_bps;
  return r;
}

}  // namespace ccml
