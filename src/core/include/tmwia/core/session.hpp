// tmwia::Session — the five-line front door to the library.
//
//   tmwia::Session session(inst.matrix);
//   auto report = session.alpha(0.5).seed(42).run();
//   // report.outputs[p] estimates player p's hidden preference row.
//
// A Session owns the ProbeOracle / Billboard / FaultInjector plumbing
// that the lower-level API makes the caller wire by hand, plus the
// observability sinks: `.metrics_sink(path)` writes the global
// MetricsRegistry snapshot as JSON after each run, with this session's
// oracle totals as the `oracle.*` gauges, `.record_sink(path)`
// streams the flight log of this session's runs — its recorder is
// attached to this session's oracle and billboard only, so Sessions
// alive side by side never write into each other's logs.
//
// Configuration is builder-style and must happen before the first
// run*() call (the oracle and sinks are built lazily at that point);
// later configuration calls throw. One Session = one oracle = one
// probe ledger, so consecutive runs share probe history exactly like
// consecutive phases of one deployment would.
//
// tmwia-lint: allow-file(matrix-read-in-strategy) harness side: Session
// holds the hidden truth only to construct the ProbeOracle; no
// estimate is computed from it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/faults/fault_injector.hpp"
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
  /// Algorithm parameters (default core::Params::practical()).
  Session& params(const core::Params& p);
  /// Master seed; every run r draws from split(seed, r) (default 1).
  Session& seed(std::uint64_t s);
  /// Probe-noise model (default noiseless).
  Session& noise(billboard::NoiseModel n);
  /// Distance-kernel backend (default: leave the process-global choice
  /// alone — kAuto unless earlier code selected another).
  /// Applied at build() via bits::kernels::set_backend; throws there if
  /// this CPU cannot run the requested backend, or (std::logic_error)
  /// if engine threads are mid-parallel-phase — selection must stay
  /// serial setup. Every backend computes identical results — this
  /// knob trades speed, never output.
  Session& kernel(bits::KernelBackend b);
  /// Fault plan, as a spec string (see faults::FaultPlan::parse) ...
  Session& faults(std::string_view spec);
  /// ... or pre-built.
  Session& faults(const faults::FaultPlan& plan);
  /// Requested global thread-pool size (0 = hardware concurrency).
  /// Forwarded to engine::set_global_threads, so it only sticks if no
  /// parallel phase has run yet anywhere in the process.
  Session& threads(std::size_t n);
  /// After every run, write the metrics snapshot (JSON) here, its
  /// `oracle.*` gauges set from this session's oracle. Enables the
  /// global MetricsRegistry.
  Session& metrics_sink(std::string path);
  /// Stream the flight-recorder event log here (see
  /// obs::FlightRecorder). The session installs a truth-closing output
  /// evaluator, so phase_summary records carry max/mean discrepancy.
  Session& record_sink(std::string path);

  /// Theorem 1.1: known alpha, unknown D.
  core::RunReport run();
  /// Fig. 1: known alpha and D.
  core::RunReport run(std::size_t D);
  /// Section 6 anytime algorithm under a per-player round budget.
  core::RunReport run_anytime(std::uint64_t round_budget);

  /// The underlying pieces, for inspection after a run (building the
  /// session on first access if needed).
  billboard::ProbeOracle& oracle();
  billboard::Billboard& board();
  [[nodiscard]] const faults::FaultInjector* fault_injector() const;

 private:
  void build();                    // construct oracle/injector/sinks once
  void require_unbuilt(const char* setter) const;
  core::RunReport finish(core::RunReport report);

  const matrix::PreferenceMatrix* truth_;
  double alpha_ = 0.5;
  core::Params params_;
  std::uint64_t seed_ = 1;
  billboard::NoiseModel noise_;
  std::optional<bits::KernelBackend> kernel_;
  std::optional<faults::FaultPlan> fault_plan_;
  std::string metrics_path_;
  std::string record_path_;

  bool built_ = false;
  std::uint64_t run_index_ = 0;
  std::unique_ptr<billboard::ProbeOracle> oracle_;
  std::unique_ptr<billboard::Billboard> board_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<obs::RecordSink> record_;  ///< attached to oracle_/board_ from build() on
};

}  // namespace tmwia
