// GENERATED by tools/lint/tmwia_lint.py --write-header-test — do not edit.
//
// Include-hygiene backstop: every public header of the library is
// included here, so a header that stops compiling (or starts relying
// on an include-order accident elsewhere in the tree) breaks this TU.
// The per-header self-containment proof is tmwia_lint.py
// --compile-checks, which compiles each header as its own TU; this
// generated test keeps the whole set compiling together in every
// build configuration, including sanitizer trees.
#include <gtest/gtest.h>

#include "tmwia/baselines/baselines.hpp"
#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/billboard/strategies.hpp"
#include "tmwia/bits/bitvector.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/bits/trivector.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/budget.hpp"
#include "tmwia/core/checkpoint.hpp"
#include "tmwia/core/coalesce.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/good_object.hpp"
#include "tmwia/core/large_radius.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/rselect.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/core/session.hpp"
#include "tmwia/core/small_radius.hpp"
#include "tmwia/core/tmwia.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/core/zero_radius_strategy.hpp"
#include "tmwia/engine/supervisor.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/faults/fault_plan.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/checkpoint.hpp"
#include "tmwia/io/flat_json.hpp"
#include "tmwia/io/serialize.hpp"
#include "tmwia/io/table.hpp"
#include "tmwia/linalg/dense_matrix.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/matrix/ids.hpp"
#include "tmwia/matrix/preference_matrix.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/latency.hpp"
#include "tmwia/obs/metric_names.gen.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"
#include "tmwia/obs/shard_set.hpp"
#include "tmwia/obs/slo.hpp"
#include "tmwia/obs/telemetry.hpp"
#include "tmwia/rng/partition.hpp"
#include "tmwia/rng/rng.hpp"
#include "tmwia/serve/cache.hpp"
#include "tmwia/serve/protocol.hpp"
#include "tmwia/serve/service.hpp"
#include "tmwia/serve/tenant.hpp"
#include "tmwia/stats/summary.hpp"
#include "tmwia/support/json.hpp"
#include "tmwia/support/thread_annotations.hpp"

TEST(HeaderSelfContained, AllPublicHeadersCompileTogether) {
  SUCCEED() << "54 public headers included";
}
