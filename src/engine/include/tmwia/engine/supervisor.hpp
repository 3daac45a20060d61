// Supervisor: supervised execution of round strategies with deadlines,
// backoff, and quarantine — the run degrades instead of aborting.
//
// The RoundScheduler already isolates a throwing strategy (it is marked
// failed and skipped forever). The Supervisor adds a second-chance
// policy in front of that: each strategy is wrapped in a decorator that
// catches its exceptions, benches the player for a deterministic
// exponential backoff (measured in lockstep rounds — never wall time),
// and only quarantines it for good after `max_strikes` failures. A
// quarantined player reports done() so it cannot stall the run; its
// community is later re-adopted through the existing orphan-rescue path
// (core::rescue_orphans via FaultInjector::note_orphan).
//
// Execution is phased: each PhaseSpec gives the whole strategy set a
// round budget (a deadline). A phase whose budget is exhausted before
// every strategy is done is recorded as unmet; the run continues into
// the next phase regardless. The final SupervisorResult — quarantined
// players, unmet phases — feeds core::RunReport::degraded, so a
// supervised run always produces a (possibly partial) report.
//
// Determinism: backoff lengths depend only on (strike count, config),
// bench windows on the shared round clock, and phases reuse one
// scheduler and its monotone round clock, so a
// supervised run replays byte-identically under the flight recorder.
//
// Thread safety: like the RoundScheduler it drives, a Supervisor is
// single-threaded by contract (members unguarded, one driving thread);
// parallelism lives below it, inside phases.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tmwia/billboard/round_scheduler.hpp"

namespace tmwia::engine {

/// Retry/quarantine policy knobs. All units are lockstep rounds.
struct SupervisorConfig {
  /// Strikes (caught exceptions) before a strategy is quarantined.
  std::size_t max_strikes = 3;
  /// Rounds benched after the first strike; doubles per strike.
  std::size_t backoff_base = 1;
  /// Upper bound on one bench window.
  std::size_t backoff_cap = 64;
};

/// One deadline segment: the whole strategy set should be done within
/// `round_budget` lockstep rounds of the phase starting.
struct PhaseSpec {
  std::string label;
  std::size_t round_budget = 0;
};

/// What one phase did.
struct PhaseOutcome {
  std::string label;
  billboard::ScheduleResult result;
  bool met_deadline = false;  ///< every strategy done within the budget
  /// Cumulative cost at the end of the phase (rounds across phases,
  /// oracle invocations since run() started) — timeline material.
  std::uint64_t cum_rounds = 0;
  std::uint64_t cum_probes = 0;
};

struct SupervisorResult {
  std::vector<PhaseOutcome> phases;  ///< phases actually run (stops when all done)
  /// Players whose strategy struck out (sorted ascending). Their
  /// inner strategy is never called again.
  std::vector<billboard::PlayerId> quarantined;
  /// Labels of phases that exhausted their budget before completion.
  std::vector<std::string> unmet_phases;
  std::uint64_t strikes = 0;         ///< exceptions absorbed across all players
  std::uint64_t benched_rounds = 0;  ///< player-rounds idled in backoff windows
  /// The run gave something up (mirrors core::DegradedInfo::empty()).
  [[nodiscard]] bool degraded() const {
    return !quarantined.empty() || !unmet_phases.empty();
  }
};

/// Drives one strategy per player through the phase deadlines, wrapping
/// each in the strike/backoff/quarantine decorator. The caller's
/// strategy vector is intact after run() returns (ownership is borrowed
/// for the duration of the call).
class Supervisor {
 public:
  explicit Supervisor(billboard::ProbeOracle& oracle, SupervisorConfig cfg = {});

  SupervisorResult run(std::vector<std::unique_ptr<billboard::PlayerStrategy>>& strategies,
                       const std::vector<PhaseSpec>& phases);

 private:
  billboard::ProbeOracle* oracle_;
  SupervisorConfig cfg_;
  billboard::RoundScheduler scheduler_;
};

}  // namespace tmwia::engine
