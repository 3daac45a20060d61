// Algorithm Select (Fig. 3): the Choose Closest problem with a known
// distance bound.
//
//   Input: candidate vectors V (possibly containing ? entries), a
//   distance bound D such that some candidate is within D of the
//   player's hidden vector, and the ability to Probe coordinates of
//   that hidden vector.
//   Output: the lexicographically first closest candidate, using at
//   most |V| * (D + 1) probes (Theorem 3.2).
//
// Candidates are TriVectors because Large Radius runs Select over
// Coalesce outputs, which contain "don't care" entries; distances are
// d-tilde (? coordinates never distinguish). The probe side is a
// callback so the same implementation serves primitive objects (probe
// the oracle) and Large Radius's virtual objects.
//
// Per the paper's remark, Select ignores any probes made before its
// execution: it tracks its own probed set and *re-invokes* Probe even
// for coordinates the player probed earlier (the oracle charges
// invocations; see ProbeOracle).
//
// Select probes distinguishing coordinates in ascending order, each at
// most once, and reads nothing but the probe results. A caller that
// already knows a player's bits may therefore decide once for every
// player with those bits and replay the probed coordinates per player:
// select_uncharged decides, and charge_select charges each replay as
// the player's own Select (Small Radius, DESIGN §13.6).
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "tmwia/bits/trivector.hpp"

namespace tmwia::core {

/// Probe callback: coordinate index -> the player's hidden bit.
///
/// A non-owning view of the caller's callable (a function_ref): Select
/// and RSelect run millions of times per experiment, and an owning
/// std::function here would heap-allocate per call for any capture
/// over two words (exactly the oracle+player+objects closures every
/// caller passes). The view is only valid while the referenced
/// callable lives — which holds for the universal pattern of passing a
/// lambda to a single select/rselect invocation. Do not store one.
class ProbeFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ProbeFn> &&
             std::is_invocable_r_v<bool, F&, std::uint32_t>)
  // NOLINTNEXTLINE(google-explicit-constructor) bind call-site lambdas implicitly
  ProbeFn(F&& f)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, std::uint32_t j) -> bool {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(j);
        }) {}

  bool operator()(std::uint32_t j) const { return call_(obj_, j); }

 private:
  void* obj_;
  bool (*call_)(void*, std::uint32_t);
};

struct SelectResult {
  /// Index into the candidate list of the chosen vector.
  std::size_t index = 0;
  /// Number of Probe invocations made by this Select execution.
  std::size_t probes = 0;
  /// Disagreements observed between the chosen candidate and the
  /// probed coordinates (a lower bound on the true distance). Note
  /// that at least one candidate always survives elimination — at any
  /// distinguishing coordinate the probed bit matches some alive
  /// candidate — so when the D-precondition is violated the output is
  /// simply the best effort; correctness guarantees need the
  /// precondition (Theorem 3.2).
  std::size_t observed_disagreements = 0;
};

/// Run Select on `candidates` with distance bound `D`.
/// Precondition: candidates non-empty.
SelectResult select_closest(const std::vector<bits::TriVector>& candidates, std::size_t D,
                            const ProbeFn& probe);

/// Convenience overload for fully-known candidates.
SelectResult select_closest(const std::vector<bits::BitVector>& candidates, std::size_t D,
                            const ProbeFn& probe);

/// select_closest without its accounting: the same decision and the
/// same probe sequence, charged to nothing. Small Radius runs it once
/// per distinct leaf row, probing the row's own bits, and charges each
/// player that replays the row's probes with charge_select; Zero
/// Radius adoption runs it with D = 0 (select_zero), uncharged.
SelectResult select_uncharged(const std::vector<bits::BitVector>& candidates, std::size_t D,
                              const ProbeFn& probe);

/// Select's accounting, for one execution over `candidates` candidates
/// that made `probes` probes: core.select.calls, the
/// core.select.candidates histogram, core.select.probes and the
/// profiler's kProbes on the calling thread's zone (a singleton
/// charges the call only). Every select_closest call charges through
/// it.
void charge_select(std::size_t candidates, std::size_t probes);

}  // namespace tmwia::core
