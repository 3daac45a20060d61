// Section 6: "Given a bound on the running time of the algorithm, we
// can compute the smallest possible alpha and run the algorithm with
// it." This is the cost model that computation needs: a closed-form
// upper estimate of the per-player rounds each branch of the
// implementation spends at a given alpha, assembled exactly the way the
// unknown-D driver assembles its guesses. It deliberately over-counts
// (every min(...) uses the worse side's constants) so that running with
// the returned alpha stays within the budget.
//
// tmwia-lint: allow-file(no-product-caller) no command calls the model
// yet: it is the predicted column of `inspect --explain` (ROADMAP,
// "Explain a run's cost in the paper's terms"); budget_test holds it to
// measured runs until then.
#pragma once

#include <cstdint>
#include <optional>

#include "tmwia/core/params.hpp"

namespace tmwia::core {

/// Estimated per-player probing rounds of one Zero Radius run.
double estimated_zero_radius_rounds(double alpha, std::size_t n, std::size_t m,
                                    const Params& params);

/// Estimated per-player probing rounds of one Small Radius run with
/// distance bound D.
double estimated_small_radius_rounds(double alpha, std::size_t D, std::size_t n,
                                     std::size_t m, const Params& params);

/// Estimated per-player probing rounds of one Large Radius run with
/// diameter bound D.
double estimated_large_radius_rounds(double alpha, std::size_t D, std::size_t n,
                                     std::size_t m, const Params& params);

/// Estimated per-player rounds of the full unknown-D driver (all
/// guesses D = 0, 1, 2, ... plus the RSelect pick).
double estimated_unknown_d_rounds(double alpha, std::size_t n, std::size_t m,
                                  const Params& params);

/// The smallest alpha = 2^-j (j >= 0, alpha*n >= 1) whose estimated
/// unknown-D cost fits in `round_budget`; nullopt when even alpha = 1
/// does not fit. Smaller alpha serves smaller communities, so this is
/// the most inclusive run the budget affords (Section 6).
std::optional<double> smallest_alpha_for_budget(std::uint64_t round_budget, std::size_t n,
                                                std::size_t m, const Params& params);

}  // namespace tmwia::core
