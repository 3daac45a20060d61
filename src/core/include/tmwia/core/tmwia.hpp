// Umbrella header: the public API of the tmwia library.
//
// Typical use:
//
//   tmwia::matrix::Instance inst = tmwia::matrix::planted_community(...);
//   tmwia::Session session(inst.matrix);
//   auto report = session.alpha(0.25).seed(seed).run();
//   // report.outputs[p] estimates player p's hidden preference row.
//
// Session wraps the oracle wiring; the pieces stay public
// (billboard::ProbeOracle, core::find_preferences_unknown_d, ...) for
// callers that need a board, faults, a recorder or a kernel backend.
//
// tmwia-lint: allow-file(matrix-read-in-strategy) umbrella header:
// aggregates the whole public API, including the harness-side matrix.
#pragma once

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/bits/trivector.hpp"
#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/billboard/strategies.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/budget.hpp"
#include "tmwia/core/coalesce.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/good_object.hpp"
#include "tmwia/core/large_radius.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/rselect.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/core/session.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/core/zero_radius_strategy.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/matrix/preference_matrix.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/rng/rng.hpp"
