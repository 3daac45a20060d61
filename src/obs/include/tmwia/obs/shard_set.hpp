// ShardSet: the owner-write slot storage behind MetricsRegistry and
// Profiler.
//
// Every writing thread owns a private *shard* of 64-bit slots. add()
// touches only the calling thread's shard, with a plain load+store (no
// RMW, no lock prefix, no cross-thread cache-line contention); the
// slots are atomics only so a merging reader is race-free. totals()
// merges all shards by summation, which commutes, so the merged values
// do not depend on how work was spread over threads.
//
// Shard lookup: a small thread-local cache maps set ids to the thread's
// shards. On a miss the thread looks up the shard it already owns in
// this set (under the set's lock) before attaching a new one, so a
// thread alternating between several sets keeps exactly one shard per
// set however often it switches.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::obs {

class ShardSet {
  static constexpr std::size_t kChunkBits = 8;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = 64;

 public:
  static constexpr std::size_t kMaxSlots = kMaxChunks * kChunkSlots;  ///< 16384

  ShardSet();
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  /// Add `v` to `slot` (< kMaxSlots) of the calling thread's shard.
  void add(std::size_t slot, std::uint64_t v) { local_shard().add(slot, v); }

  /// Per-slot sums over every shard for slots [0, n). Call at quiescent
  /// points: concurrent adds are never corrupted, but a mid-phase merge
  /// may see one slot of a multi-slot update and not the other.
  [[nodiscard]] std::vector<std::uint64_t> totals(std::size_t n) const TMWIA_EXCLUDES(mu_);

  /// Zero every slot; shards stay attached. Quiescent points only.
  void reset() TMWIA_EXCLUDES(mu_);

  /// Shards attached so far: one per thread that ever wrote.
  // tmwia-lint: allow(no-product-caller) one shard per writing thread bounds shard memory; ShardSet.AlternatingInstancesKeepOneShardEach checks that bound only through this
  [[nodiscard]] std::size_t shard_count() const TMWIA_EXCLUDES(mu_);

 private:
  struct Chunk {
    std::array<std::atomic<std::uint64_t>, kChunkSlots> slots{};
  };
  /// One writer thread's private slot array. Only `owner` stores; the
  /// chunks are allocated lazily on its first write to each range.
  struct Shard {
    explicit Shard(std::thread::id o) : owner(o) {}
    ~Shard();
    void add(std::size_t slot, std::uint64_t v);

    std::thread::id owner;
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};
  };

  Shard& local_shard();
  Shard& find_or_attach() TMWIA_EXCLUDES(mu_);

  std::uint64_t id_;  ///< process-unique; keys the thread-local cache
  /// Guards the shard list. Slot contents are deliberately unguarded:
  /// owner-write atomics, the point of the contention-free hot path.
  mutable support::Mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_ TMWIA_GUARDED_BY(mu_);
};

}  // namespace tmwia::obs
