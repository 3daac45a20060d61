// MetricsRegistry: low-overhead named counters, gauges and fixed-bucket
// histograms for the whole stack.
//
// Hot-path design: counters and histograms live in an owner-write
// ShardSet (shard_set.hpp); Counter::add / Histogram::observe touch only
// the calling thread's shard, so the ThreadPool phases pay no
// synchronization for instrumentation. Reads (snapshot) merge all
// shards by summation, which is order-independent — the merged totals
// are identical regardless of how work was spread over threads. That
// is the determinism contract the benches rely on: same seed, different
// --threads, byte-identical snapshot JSON.
//
// Determinism rules for instrumented code:
//  * counters/histograms may be touched from parallel player code —
//    summation commutes;
//  * gauges are last-write-wins and must only be set from serial
//    (phase-boundary) code;
//  * snapshot()/reset() are meant for quiescent points (no instrumented
//    work in flight) — concurrent writes are not lost or corrupted, but
//    a mid-phase snapshot may catch a histogram between its bucket and
//    sum updates.
//
// The registry is disabled by default: a disabled registry's add paths
// are one relaxed atomic load (so always-on instrumentation in library
// code costs ~nothing until a sink asks for data).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/obs/shard_set.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::obs {

/// Merged view of one histogram. `bounds` are inclusive upper bucket
/// edges; `buckets` has bounds.size() + 1 entries (the last is the
/// overflow bucket for values > bounds.back()).
struct HistogramData {
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  bool operator==(const HistogramData&) const = default;

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation within
  /// the fixed buckets: observations in bucket i are assumed uniform
  /// over (lower edge, bounds[i]]. The overflow bucket has no upper
  /// edge, so estimates falling there clamp to bounds.back() — a
  /// deliberate *under*-estimate that a reader can detect by comparing
  /// against the overflow bucket count. Returns 0 for an empty
  /// histogram.
  [[nodiscard]] double percentile(double q) const;
};

/// A point-in-time merged view of a registry. std::map keeps names
/// sorted, so to_json() is byte-deterministic for equal contents.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  bool operator==(const Snapshot&) const = default;

  /// Counter value, 0 when absent (missing == never touched).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// One-line JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"bounds":[...],"buckets":[...],"sum":S,
  /// "count":C}}}. Keys sorted, no whitespace — byte-stable.
  [[nodiscard]] std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// Handle to a named counter. Cheap to copy; safe to cache in a
  /// function-local static. A default-constructed handle is a no-op.
  class Counter {
   public:
    Counter() = default;
    void add(std::uint64_t v) const {
      if (reg_ != nullptr && reg_->enabled()) reg_->slot_add(slot_, v);
    }
    void inc() const { add(1); }

   private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry* reg, std::uint32_t slot) : reg_(reg), slot_(slot) {}
    MetricsRegistry* reg_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  /// Handle to a named fixed-bucket histogram of integer values.
  class Histogram {
   public:
    Histogram() = default;
    void observe(std::uint64_t v) const;

   private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry* reg, std::uint32_t base, const std::vector<std::uint64_t>* bounds)
        : reg_(reg), base_(base), bounds_(bounds) {}
    MetricsRegistry* reg_ = nullptr;
    std::uint32_t base_ = 0;                          ///< first bucket slot
    const std::vector<std::uint64_t>* bounds_ = nullptr;  ///< owned by registry
  };

  explicit MetricsRegistry(bool enabled = true);
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Find-or-create the counter `name`. Registration is idempotent;
  /// re-registering a name of a different metric kind throws.
  Counter counter(std::string_view name);

  /// Find-or-create histogram `name` with the given inclusive upper
  /// bucket bounds (must be non-empty, strictly increasing). Bounds of
  /// an existing histogram must match exactly.
  Histogram histogram(std::string_view name, std::vector<std::uint64_t> bounds);

  /// Strictly-increasing power-of-two bounds 1, 2, 4, ..., 2^(k-1) —
  /// the default shape for size/cost distributions.
  static std::vector<std::uint64_t> pow2_bounds(std::size_t k);

  /// Gauges: registry-level last-write-wins cells. Only call from
  /// serial code if snapshot determinism matters.
  void set_gauge(std::string_view name, std::int64_t value);

  /// Merge every shard into a Snapshot (call at quiescent points).
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every slot and gauge; registered names and handles stay
  /// valid. Call at quiescent points only.
  void reset();

  /// Reset, then re-register and re-load every metric in `snap` so a
  /// subsequent snapshot() equals `snap` exactly. Histogram bounds come
  /// from the snapshot; a name already registered with a different kind
  /// or bounds throws. Used by checkpoint resume to splice the metrics
  /// stream. Call at quiescent points only.
  void restore(const Snapshot& snap);

  /// Process-global registry used by the library's built-in
  /// instrumentation. Starts DISABLED; sinks (tmwia_cli --metrics=,
  /// bench --metrics=) enable it.
  static MetricsRegistry& global();

  /// Shards attached so far: one per thread that ever wrote a metric.
  // tmwia-lint: allow(no-product-caller) one shard per writing thread bounds shard memory; ShardSet.AlternatingInstancesKeepOneShardEach checks that bound only through this
  [[nodiscard]] std::size_t shard_count() const { return shards_.shard_count(); }

 private:
  enum class Kind : std::uint8_t { kCounter, kHistogram };
  struct MetricInfo {
    Kind kind;
    std::uint32_t slot;       ///< first slot (counters use exactly one)
    std::uint32_t slot_count;
    std::unique_ptr<std::vector<std::uint64_t>> bounds;  ///< histograms only
  };

  friend class Counter;
  friend class Histogram;

  void slot_add(std::size_t slot, std::uint64_t v) { shards_.add(slot, v); }

  std::atomic<bool> enabled_;
  ShardSet shards_;  ///< counter/histogram slots (synchronizes itself)
  /// Guards registry *structure* (name table, gauge cells).
  mutable support::Mutex mu_;
  std::map<std::string, MetricInfo, std::less<>> names_ TMWIA_GUARDED_BY(mu_);
  std::uint32_t next_slot_ TMWIA_GUARDED_BY(mu_) = 0;
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>, std::less<>> gauges_
      TMWIA_GUARDED_BY(mu_);
};

}  // namespace tmwia::obs
