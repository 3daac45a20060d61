#include "tmwia/obs/shard_set.hpp"

namespace tmwia::obs {
namespace {

/// Sets get process-unique ids so the thread-local cache can never
/// confuse a new set allocated at a recycled address.
// tmwia-lint: allow(nonconst-global) registered singleton: monotone id source
std::atomic<std::uint64_t> g_next_set_id{1};

/// A few (set id, shard) pairs per thread: enough that the registry and
/// the profiler, touched alternately on every instrumented call, both
/// stay cached. Replacement is round-robin.
struct TlsShardCache {
  static constexpr std::size_t kWays = 4;
  std::array<std::uint64_t, kWays> ids{};
  std::array<void*, kWays> shards{};
  std::size_t next = 0;
};
thread_local TlsShardCache t_cache;

}  // namespace

ShardSet::Shard::~Shard() {
  for (auto& c : chunks) delete c.load(std::memory_order_relaxed);
}

void ShardSet::Shard::add(std::size_t slot, std::uint64_t v) {
  auto& cell = chunks[slot >> kChunkBits];
  Chunk* c = cell.load(std::memory_order_acquire);
  if (c == nullptr) {
    // Only the owner allocates its chunks; release-publish so a merging
    // reader that sees the pointer sees zeroed slots.
    c = new Chunk();
    cell.store(c, std::memory_order_release);
  }
  auto& s = c->slots[slot & (kChunkSlots - 1)];
  s.store(s.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

ShardSet::ShardSet() : id_(g_next_set_id.fetch_add(1, std::memory_order_relaxed)) {}

ShardSet::~ShardSet() = default;

ShardSet::Shard& ShardSet::local_shard() {
  for (std::size_t i = 0; i < TlsShardCache::kWays; ++i) {
    if (t_cache.ids[i] == id_) return *static_cast<Shard*>(t_cache.shards[i]);
  }
  Shard& s = find_or_attach();
  const std::size_t way = t_cache.next++ % TlsShardCache::kWays;
  t_cache.ids[way] = id_;
  t_cache.shards[way] = &s;
  return s;
}

ShardSet::Shard& ShardSet::find_or_attach() {
  const auto me = std::this_thread::get_id();
  support::MutexLock lk(mu_);
  for (const auto& shard : shards_) {
    if (shard->owner == me) return *shard;
  }
  shards_.push_back(std::make_unique<Shard>(me));
  return *shards_.back();
}

std::vector<std::uint64_t> ShardSet::totals(std::size_t n) const {
  std::vector<std::uint64_t> out(n, 0);
  support::MutexLock lk(mu_);
  for (const auto& shard : shards_) {
    for (std::size_t ci = 0; ci < kMaxChunks && (ci << kChunkBits) < n; ++ci) {
      const Chunk* c = shard->chunks[ci].load(std::memory_order_acquire);
      if (c == nullptr) continue;
      const std::size_t base = ci << kChunkBits;
      for (std::size_t si = 0; si < kChunkSlots && base + si < n; ++si) {
        out[base + si] += c->slots[si].load(std::memory_order_relaxed);
      }
    }
  }
  return out;
}

void ShardSet::reset() {
  support::MutexLock lk(mu_);
  for (const auto& shard : shards_) {
    for (auto& cp : shard->chunks) {
      Chunk* c = cp.load(std::memory_order_acquire);
      if (c == nullptr) continue;
      for (auto& s : c->slots) s.store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t ShardSet::shard_count() const {
  support::MutexLock lk(mu_);
  return shards_.size();
}

}  // namespace tmwia::obs
