// Deterministic cost-attribution profiler.
//
// A ProfileZone marks a scoped phase ("find_preferences", "select",
// "tenant:alpha"); zones nest into a tree, and every logical cost
// deposited while a zone is current — probes charged, kernel bytes
// scanned, billboard rank queries, lock acquisitions, scheduler rounds
// — lands on that zone's node.
//
// Ownership: there is no process-wide profiler. A caller that wants a
// profile constructs a Profiler, makes it current on its thread for
// the run (ProfileScope, or a ProfileZone handed the profiler) and
// renders report() once the run is over. A thread's place in a profile
// is one (profiler, zone) pair, Profiler::Current: the library's zones
// open children in the thread's profiler and profile_cost deposits on
// the thread's zone; on a thread with no profiler both do nothing.
// Because the pair names its profiler, a cost can never land on a
// same-numbered zone of some other profiler.
//
// Determinism contract (the reason this exists next to wall-clock
// profilers): all *logical* costs are pure functions of the workload,
// so the attribution tree is byte-identical across --threads and
// across kernel backends. The storage is the same owner-write ShardSet
// MetricsRegistry uses — each writing thread deposits into a private
// shard of plain 64-bit slots (no RMW, no contention), and report()
// merges shards by summation, which commutes. Zone *ids* are
// interning-order dependent (racy across threads), so they never
// appear in any export: report() re-keys the tree by zone name, with
// children sorted by name.
//
// Wall time (Cost::kWallUs) is the one opt-in exception: when
// set_wall_sampling(true), each ProfileZone also deposits its
// elapsed microseconds. Wall costs are scheduling-dependent, so
// ProfileReport::to_json() omits them unless asked — determinism
// checks diff the default export.
//
// Cross-thread attribution: engine::parallel_for hands the caller's
// pair to pool workers (swap_current), so costs from parallelized
// player loops attribute to the phase that spawned them, in the
// caller's profiler.
//
// Profiler state is process-local and NOT checkpointed: a resumed
// run's tree covers the resumed session only (metrics, by contrast,
// are spliced via MetricsRegistry::restore).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tmwia/obs/shard_set.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::obs {

/// Logical cost axes recorded per zone. All except kWallUs are
/// workload-determined (byte-stable across threads/backends).
enum class Cost : std::uint8_t {
  kProbes = 0,       ///< oracle probes charged
  kKernelBytes = 1,  ///< logical bytes handed to distance kernels (vectors x words x 8)
  kRankQueries = 2,  ///< billboard tally/rank reads
  kLocks = 3,        ///< instrumented lock acquisitions (serve hot path)
  kRounds = 4,       ///< scheduler rounds driven
  kCalls = 5,        ///< zone entries (every ProfileZone deposits 1 on exit)
  kWallUs = 6,       ///< opt-in wall-time sampling, microseconds
  kCount = 7
};

inline constexpr std::size_t kCostCount = static_cast<std::size_t>(Cost::kCount);

/// Short stable key for each cost axis, used in JSON exports.
[[nodiscard]] std::string_view cost_name(Cost c);

/// One node of the merged attribution tree. Children are sorted by
/// name, so equal logical work yields byte-identical exports.
struct ProfileNode {
  std::string name;
  std::array<std::uint64_t, kCostCount> costs{};  ///< self costs (exclusive)
  std::vector<ProfileNode> children;

  [[nodiscard]] std::uint64_t cost(Cost c) const {
    return costs[static_cast<std::size_t>(c)];
  }
};

/// Point-in-time merged attribution tree.
struct ProfileReport {
  ProfileNode root;  ///< name "root"; top-level zones are its children

  /// Nested one-line JSON: {"name":N,"costs":{axis:V,...},"children":
  /// [...]}. Only nonzero axes appear, in fixed axis order; wall_us is
  /// omitted unless include_wall (it breaks cross-thread byte
  /// stability). Byte-deterministic for equal logical work.
  [[nodiscard]] std::string to_json(bool include_wall = false) const;

  /// d3-flamegraph-style JSON over one axis: {"name":N,"value":self,
  /// "children":[...]}. `value` is the zone's self cost; stack totals
  /// are the sums down each path.
  [[nodiscard]] std::string flamegraph_json(Cost axis) const;
};

class Profiler {
 public:
  using ZoneId = std::uint32_t;
  static constexpr ZoneId kRoot = 0;

  /// A thread's place in a profile: the profiler its costs go to and
  /// the zone current there. A null profiler records nothing.
  struct Current {
    Profiler* prof = nullptr;
    ZoneId zone = kRoot;
  };

  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Opt-in wall-time sampling: every ProfileZone also deposits its
  /// elapsed microseconds (Cost::kWallUs). Off by default — wall costs
  /// are scheduling-dependent and excluded from determinism checks.
  [[nodiscard]] bool wall_sampling() const { return wall_.load(std::memory_order_relaxed); }
  void set_wall_sampling(bool on) { wall_.store(on, std::memory_order_relaxed); }

  /// Find-or-create the child zone `name` under `parent`. Idempotent;
  /// the id is stable for the profiler's lifetime. Ids are
  /// interning-order dependent — cache them, never export them.
  ZoneId intern(ZoneId parent, std::string_view name) TMWIA_EXCLUDES(mu_);

  /// Deposit `v` of axis `c` on `zone` (owner-write shard; no
  /// cross-thread contention).
  void add(ZoneId zone, Cost c, std::uint64_t v) {
    shards_.add(zone * kCostCount + static_cast<std::size_t>(c), v);
  }

  /// Merge every shard into a name-keyed attribution tree (call at
  /// quiescent points).
  [[nodiscard]] ProfileReport report() const TMWIA_EXCLUDES(mu_);

  /// Zero every slot; interned zones and cached ids stay valid. Call
  /// at quiescent points only.
  void reset() TMWIA_EXCLUDES(mu_);

  /// The calling thread's profiler and zone ({nullptr, kRoot} on a
  /// thread with no profiler).
  [[nodiscard]] static Current current();

  /// Install `next` as the calling thread's pair, returning the
  /// previous one. Used by ProfileScope, ProfileZone and parallel_for's
  /// hand-off onto pool workers; always restore.
  static Current swap_current(Current next);

  /// Shards attached so far: one per thread that ever deposited.
  // tmwia-lint: allow(no-product-caller) one shard per writing thread bounds shard memory; ShardSet.AlternatingInstancesKeepOneShardEach checks that bound only through this
  [[nodiscard]] std::size_t shard_count() const { return shards_.shard_count(); }

 private:
  struct ZoneInfo {
    std::string name;
    ZoneId parent = kRoot;
  };

  std::atomic<bool> wall_{false};
  ShardSet shards_;  ///< slot zone * kCostCount + cost (synchronizes itself)
  /// Guards profiler *structure* (the zone table).
  mutable support::Mutex mu_;
  std::vector<ZoneInfo> zones_ TMWIA_GUARDED_BY(mu_);
  std::map<std::pair<ZoneId, std::string>, ZoneId, std::less<>> ids_ TMWIA_GUARDED_BY(mu_);
};

/// RAII scope making `prof` the calling thread's profiler, at its
/// root. It deposits nothing, so costs made outside any zone land on
/// the root. A null profiler, or the one the thread already has,
/// leaves the thread as it is.
class ProfileScope {
 public:
  explicit ProfileScope(Profiler* prof);
  ~ProfileScope();

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  Profiler::Current saved_;  ///< the thread's pair at entry
};

/// RAII scope marking a zone current on this thread. Deposits
/// Cost::kCalls 1 on exit (plus kWallUs when the profiler samples wall
/// time). The name-interning constructors take the zone lock once per
/// *new* (parent, name) pair and a map lookup otherwise; hot paths
/// (serve requests) should pre-intern and use the ZoneId constructor,
/// which touches no lock at all.
class ProfileZone {
 public:
  /// Open the child zone `name` under the thread's current zone, in
  /// the thread's profiler. No-op on a thread with no profiler.
  explicit ProfileZone(std::string_view name);

  /// Open `name` in `prof`, which becomes the thread's profiler for
  /// the scope: under the current zone when `prof` already is the
  /// thread's profiler, else under its root. No-op when `prof` is null.
  ProfileZone(std::string_view name, Profiler* prof);

  /// Open `prof`'s pre-interned `zone` (lock-free fast path), making
  /// `prof` the thread's profiler for the scope. No-op when `prof` is
  /// null.
  ProfileZone(Profiler::ZoneId zone, Profiler* prof);

  ~ProfileZone();

  ProfileZone(const ProfileZone&) = delete;
  ProfileZone& operator=(const ProfileZone&) = delete;

 private:
  void enter();

  Profiler* prof_;           ///< null: the scope records nothing
  Profiler::ZoneId zone_;
  Profiler::Current saved_;  ///< the thread's pair at entry, restored on exit
  std::int64_t start_us_;    ///< wall-sampling start, -1 when off
};

/// Deposit `v` of axis `c` on the calling thread's current zone, in the
/// thread's profiler; nothing on a thread with none. The library's
/// instrumentation points call this.
inline void profile_cost(Cost c, std::uint64_t v) {
  const Profiler::Current cur = Profiler::current();
  if (cur.prof != nullptr) cur.prof->add(cur.zone, c, v);
}

}  // namespace tmwia::obs
