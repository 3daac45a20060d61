// tmwia::Session — the five-line front door to the library.
//
//   tmwia::Session session(inst.matrix);
//   auto report = session.alpha(0.5).seed(42).run();
//   // report.outputs[p] estimates player p's hidden preference row.
//
// A Session owns the ProbeOracle that the lower-level API makes the
// caller wire by hand, and runs the Theorem 1.1 driver (known alpha,
// unknown D) with the practical parameters, noiseless probes and no
// faults. A caller that wants more (a billboard, a fault plan, a
// flight recorder, a kernel backend) wires the pieces itself, as the
// CLI and serve::Tenant do.
//
// alpha and seed must be set before the first run() (the oracle is
// built there); later calls throw. One Session = one oracle = one
// probe ledger, so consecutive runs share probe history exactly like
// consecutive phases of one deployment would.
//
// tmwia-lint: allow-file(matrix-read-in-strategy) harness side: Session
// holds the hidden truth only to construct the ProbeOracle; no
// estimate is computed from it.
#pragma once

#include <cstdint>
#include <memory>

#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"

namespace tmwia {

/// Evaluator for FlightRecorder::phase_summary closing over the hidden
/// truth: max/mean Hamming distance of the phase outputs to the planted
/// rows. Harness-side only — the algorithms never see the matrix, only
/// this opaque std::function. `truth` must outlive the recorder.
obs::FlightRecorder::OutputEvaluator make_truth_evaluator(
    const matrix::PreferenceMatrix& truth);

/// Set the global MetricsRegistry's `oracle.total_invocations`,
/// `oracle.total_charged` and `oracle.max_invocations` gauges, then
/// return its snapshot. The caller that writes a metrics artifact calls
/// this once, at a quiescent point, with the totals of the oracles it
/// owns (a serve session passes its tenants' sums and the largest
/// max_invocations); no algorithm entry point writes these gauges.
[[nodiscard]] obs::Snapshot snapshot_with_oracle_totals(std::uint64_t total_invocations,
                                                        std::uint64_t total_charged,
                                                        std::uint64_t max_invocations);

class Session {
 public:
  explicit Session(const matrix::PreferenceMatrix& truth);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Assumed community fraction (default 0.5).
  Session& alpha(double a);
  /// Master seed; every run r draws from split(seed, r) (default 1).
  Session& seed(std::uint64_t s);

  /// Theorem 1.1: known alpha, unknown D.
  core::RunReport run();

 private:
  void require_unbuilt(const char* setter) const;

  const matrix::PreferenceMatrix* truth_;
  double alpha_ = 0.5;
  std::uint64_t seed_ = 1;
  std::uint64_t run_index_ = 0;
  std::unique_ptr<billboard::ProbeOracle> oracle_;
};

}  // namespace tmwia
