// Tests for the observability layer (src/obs): counter/gauge/histogram
// correctness, the per-thread shard merge (same totals and identical
// snapshot bytes regardless of writer-thread count, one shard per
// thread and instance), and end-to-end byte-determinism of metrics for
// a fixed seed and fault plan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/find_preferences.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/faults/fault_injector.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/latency.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"

namespace {

using namespace tmwia;

TEST(Metrics, CounterBasics) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("a.calls");
  c.inc();
  c.add(41);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("a.calls"), 42u);
  EXPECT_EQ(snap.counter("never.touched"), 0u);
}

TEST(Metrics, DisabledRegistryDropsWrites) {
  obs::MetricsRegistry reg(/*enabled=*/false);
  auto c = reg.counter("a");
  c.add(7);
  EXPECT_EQ(reg.snapshot().counter("a"), 0u);
  reg.set_enabled(true);
  c.add(7);
  EXPECT_EQ(reg.snapshot().counter("a"), 7u);
}

TEST(Metrics, DefaultHandleIsNoOp) {
  obs::MetricsRegistry::Counter c;
  c.inc();  // must not crash
  obs::MetricsRegistry::Histogram h;
  h.observe(3);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  obs::MetricsRegistry reg;
  auto c1 = reg.counter("x");
  auto c2 = reg.counter("x");
  c1.inc();
  c2.inc();
  EXPECT_EQ(reg.snapshot().counter("x"), 2u);
  EXPECT_THROW((void)reg.histogram("x", obs::MetricsRegistry::pow2_bounds(4)),
               std::invalid_argument);
  (void)reg.histogram("h", {1, 2, 4});
  EXPECT_THROW((void)reg.histogram("h", {1, 2, 8}), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("h"), std::invalid_argument);
}

TEST(Metrics, HistogramBucketsInclusiveUpperEdges) {
  obs::MetricsRegistry reg;
  auto h = reg.histogram("lat", {1, 2, 4});
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 4u, 5u, 100u}) h.observe(v);
  const auto snap = reg.snapshot();
  const auto& hd = snap.histograms.at("lat");
  ASSERT_EQ(hd.bounds, (std::vector<std::uint64_t>{1, 2, 4}));
  // buckets: <=1 -> {0,1}; <=2 -> {2}; <=4 -> {3,4}; overflow -> {5,100}
  EXPECT_EQ(hd.buckets, (std::vector<std::uint64_t>{2, 1, 2, 2}));
  EXPECT_EQ(hd.count, 7u);
  EXPECT_EQ(hd.sum, 0u + 1 + 2 + 3 + 4 + 5 + 100);
}

TEST(Metrics, Pow2Bounds) {
  const auto b = obs::MetricsRegistry::pow2_bounds(4);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

TEST(Metrics, Gauges) {
  obs::MetricsRegistry reg;
  reg.set_gauge("g", -5);
  reg.set_gauge("g", 3);
  reg.set_gauge("other", 2);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.gauges, (std::map<std::string, std::int64_t>{{"g", 3}, {"other", 2}}));
}

TEST(Metrics, ResetZeroesKeepsHandles) {
  obs::MetricsRegistry reg;
  auto c = reg.counter("c");
  auto h = reg.histogram("h", {1, 2});
  c.add(3);
  h.observe(1);
  reg.set_gauge("g", 9);
  reg.reset();
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  EXPECT_EQ(snap.gauges.at("g"), 0);
  c.inc();
  h.observe(2);
  snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 1u);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
}

/// The same logical workload spread over 1, 2, 4 and 8 writer threads
/// must merge to identical snapshots — byte-identical to_json().
TEST(Metrics, ShardMergeIsThreadCountInvariant) {
  constexpr std::uint64_t kTotalAdds = 9600;  // divisible by 1,2,4,8
  std::vector<std::string> jsons;
  std::vector<obs::Snapshot> snaps;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    obs::MetricsRegistry reg;
    auto c = reg.counter("work.items");
    auto h = reg.histogram("work.size", obs::MetricsRegistry::pow2_bounds(8));
    const std::uint64_t per_thread = kTotalAdds / threads;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          c.inc();
          // Observation values depend only on the global item index,
          // not on which thread handles it.
          h.observe((t * per_thread + i) % 300);
        }
      });
    }
    for (auto& th : pool) th.join();
    reg.set_gauge("work.done", 1);
    snaps.push_back(reg.snapshot());
    jsons.push_back(snaps.back().to_json());
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(snaps[i], snaps[0]);
    EXPECT_EQ(jsons[i], jsons[0]) << "thread-count " << i;
  }
  EXPECT_EQ(snaps[0].counter("work.items"), kTotalAdds);
  EXPECT_EQ(snaps[0].histograms.at("work.size").count, kTotalAdds);
}

TEST(Metrics, SnapshotJsonShape) {
  obs::MetricsRegistry reg;
  reg.counter("b").inc();
  reg.set_gauge("a", -1);
  reg.histogram("h", {2, 4}).observe(3);
  // The percentile fields are %.17g-rendered doubles; build the
  // expected substrings the same way instead of hardcoding them.
  const auto snap = reg.snapshot();
  const auto& hd = snap.histograms.at("h");
  char pcts[128];
  std::snprintf(pcts, sizeof pcts, ",\"p50\":%.17g,\"p95\":%.17g,\"p99\":%.17g",
                hd.percentile(0.50), hd.percentile(0.95), hd.percentile(0.99));
  EXPECT_EQ(reg.snapshot().to_json(),
            std::string("{\"counters\":{\"b\":1},\"gauges\":{\"a\":-1},"
                        "\"histograms\":{\"h\":{\"bounds\":[2,4],\"buckets\":[0,1,0],"
                        "\"sum\":3,\"count\":1") +
                pcts + "}}}");
}

/// Percentile estimation: linear interpolation within a bucket, using
/// the bucket's lower edge (previous bound, or 0) and upper edge.
TEST(Metrics, HistogramPercentiles) {
  obs::HistogramData h;
  h.bounds = {10, 20, 40};
  h.buckets = {10, 10, 0, 0};  // 20 observations, none in overflow
  h.count = 20;
  // p50 sits exactly at the top of the first bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 10.0);
  // p75: rank 15 is 5 observations into the (10, 20] bucket of 10.
  EXPECT_DOUBLE_EQ(h.percentile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 20.0);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h.percentile(1.5), 20.0);
  // Empty histogram reports 0.
  obs::HistogramData empty;
  empty.bounds = {1, 2};
  empty.buckets = {0, 0, 0};
  EXPECT_DOUBLE_EQ(empty.percentile(0.99), 0.0);
}

/// Overflow-bucket edge case: the last bucket has no upper edge, so
/// any percentile landing there clamps to bounds.back() rather than
/// extrapolating into unbounded territory.
TEST(Metrics, HistogramPercentileOverflowClamps) {
  obs::HistogramData h;
  h.bounds = {10, 20};
  h.buckets = {2, 2, 16};  // 80% of mass in the overflow bucket
  h.count = 20;
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 20.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 20.0);
  // Percentiles below the overflow mass still interpolate normally.
  EXPECT_DOUBLE_EQ(h.percentile(0.10), 10.0);
  // All mass in overflow: every percentile clamps.
  obs::HistogramData all_over;
  all_over.bounds = {5};
  all_over.buckets = {0, 7};
  all_over.count = 7;
  EXPECT_DOUBLE_EQ(all_over.percentile(0.01), 5.0);
  EXPECT_DOUBLE_EQ(all_over.percentile(0.99), 5.0);
}

/// One observation: every percentile interpolates inside that one
/// bucket — the rank q*1 lands q of the way across the (10, 20]
/// bucket, so p50/p95/p99 spread across it and never spill into
/// neighbouring (empty) buckets or divide by zero.
TEST(Metrics, HistogramPercentileSingleSample) {
  obs::HistogramData h;
  h.bounds = {10, 20, 40};
  h.buckets = {0, 1, 0, 0};  // one observation in (10, 20]
  h.count = 1;
  h.sum = 15;
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 19.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 19.9);
  // q = 0 still resolves to the sample's bucket (its lower edge).
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
  // A single sample in the overflow bucket clamps to bounds.back().
  obs::HistogramData over;
  over.bounds = {10, 20};
  over.buckets = {0, 0, 1};
  over.count = 1;
  EXPECT_DOUBLE_EQ(over.percentile(0.50), 20.0);
  EXPECT_DOUBLE_EQ(over.percentile(0.99), 20.0);
}

// ---- WallTimer -------------------------------------------------------

/// elapsed_us() reflects real elapsed time: at least as long as a
/// sleep bracketed by the reading, and monotone across calls.
TEST(WallTimer, ElapsedCoversSleepAndIsMonotone) {
  obs::WallTimer timer;
  const auto immediately = timer.elapsed_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto after_sleep = timer.elapsed_us();
  EXPECT_GE(after_sleep, immediately + 2000);
  EXPECT_GE(timer.elapsed_us(), after_sleep);  // steady clock: never backwards
}

/// A thread alternating between instances keeps exactly one shard per
/// instance: a miss in the thread-local shard cache finds the thread's
/// existing shard instead of attaching a fresh one on every switch.
TEST(ShardSet, AlternatingInstancesKeepOneShardEach) {
  constexpr std::uint64_t kIters = 10000;
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  obs::Profiler prof;
  const auto ca = a.counter("alt.a");
  const auto cb = b.counter("alt.b");
  const auto zone = prof.intern(obs::Profiler::kRoot, "alt");
  for (std::uint64_t i = 0; i < kIters; ++i) {
    ca.inc();
    cb.inc();
  }
  for (std::uint64_t i = 0; i < kIters; ++i) {
    ca.inc();
    prof.add(zone, obs::Cost::kProbes, 1);
  }
  // More registries than the cache holds, cycled: every switch misses.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> ring;
  for (int r = 0; r < 6; ++r) ring.push_back(std::make_unique<obs::MetricsRegistry>());
  for (std::uint64_t i = 0; i < kIters; ++i) ring[i % ring.size()]->counter("alt.r").inc();

  EXPECT_EQ(a.shard_count(), 1u);
  EXPECT_EQ(b.shard_count(), 1u);
  EXPECT_EQ(prof.shard_count(), 1u);
  EXPECT_EQ(a.snapshot().counter("alt.a"), 2 * kIters);
  EXPECT_EQ(b.snapshot().counter("alt.b"), kIters);
  const auto tree = prof.report();
  ASSERT_EQ(tree.root.children.size(), 1u);
  EXPECT_EQ(tree.root.children[0].cost(obs::Cost::kProbes), kIters);
  for (std::size_t r = 0; r < ring.size(); ++r) {
    EXPECT_EQ(ring[r]->shard_count(), 1u);
    EXPECT_EQ(ring[r]->snapshot().counter("alt.r"),
              kIters / ring.size() + (r < kIters % ring.size() ? 1 : 0));
  }
}

/// End-to-end determinism: the same seed and fault plan must produce
/// byte-identical metrics snapshots, run to run.
TEST(Obs, MetricsDeterministicUnderFaults) {
  rng::Rng gen(17);
  const auto inst = matrix::planted_community(64, 64, {0.5, 1}, gen);
  const auto plan = faults::FaultPlan::parse("seed=3,probe=0.05,retry=3");

  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  auto run_once = [&] {
    reg.set_enabled(true);
    reg.reset();
    billboard::ProbeOracle oracle(inst.matrix);
    faults::FaultInjector injector(plan, inst.matrix.players());
    oracle.set_fault_injector(&injector);
    (void)core::find_preferences_unknown_d(oracle, nullptr, 0.5, core::Params::practical(),
                                           rng::Rng(5));
    return reg.snapshot().to_json();
  };

  const auto metrics1 = run_once();
  const auto metrics2 = run_once();
  reg.reset();
  reg.set_enabled(was_enabled);

  EXPECT_EQ(metrics1, metrics2);
  // The instrumented fault paths actually fired under this plan.
  EXPECT_NE(metrics1.find("\"counters\""), std::string::npos);
}

}  // namespace
