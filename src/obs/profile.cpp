#include "tmwia/obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "tmwia/support/json.hpp"

namespace tmwia::obs {
namespace {

/// The calling thread's (profiler, zone); no profiler by default.
constinit thread_local Profiler::Current t_current;

std::int64_t wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_node_json(std::string& out, const ProfileNode& node, bool include_wall) {
  out += "{\"name\":";
  support::append_json_string(out, node.name);
  out += ",\"costs\":{";
  bool first = true;
  for (std::size_t i = 0; i < kCostCount; ++i) {
    const auto axis = static_cast<Cost>(i);
    if (axis == Cost::kWallUs && !include_wall) continue;
    if (node.costs[i] == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    support::append_json_string(out, cost_name(axis));
    out.push_back(':');
    out += std::to_string(node.costs[i]);
  }
  out += "},\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_node_json(out, node.children[i], include_wall);
  }
  out += "]}";
}

void append_flame_json(std::string& out, const ProfileNode& node, Cost axis) {
  out += "{\"name\":";
  support::append_json_string(out, node.name);
  out += ",\"value\":";
  out += std::to_string(node.cost(axis));
  out += ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_flame_json(out, node.children[i], axis);
  }
  out += "]}";
}

void sort_children(ProfileNode& node) {
  std::sort(node.children.begin(), node.children.end(),
            [](const ProfileNode& a, const ProfileNode& b) { return a.name < b.name; });
  for (auto& child : node.children) sort_children(child);
}

}  // namespace

std::string_view cost_name(Cost c) {
  switch (c) {
    case Cost::kProbes: return "probes";
    case Cost::kKernelBytes: return "kernel_bytes";
    case Cost::kRankQueries: return "rank_queries";
    case Cost::kLocks: return "locks";
    case Cost::kRounds: return "rounds";
    case Cost::kCalls: return "calls";
    case Cost::kWallUs: return "wall_us";
    case Cost::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ProfileNode / ProfileReport

std::string ProfileReport::to_json(bool include_wall) const {
  std::string out;
  append_node_json(out, root, include_wall);
  return out;
}

std::string ProfileReport::flamegraph_json(Cost axis) const {
  std::string out;
  append_flame_json(out, root, axis);
  return out;
}

// ---------------------------------------------------------------------------
// Profiler

Profiler::Profiler() {
  support::MutexLock lk(mu_);
  zones_.push_back(ZoneInfo{"root", kRoot});  // kRoot names itself
}

Profiler::~Profiler() = default;

Profiler::ZoneId Profiler::intern(ZoneId parent, std::string_view name) {
  support::MutexLock lk(mu_);
  auto it = ids_.find(std::make_pair(parent, std::string(name)));
  if (it != ids_.end()) return it->second;
  if ((zones_.size() + 1) * kCostCount > ShardSet::kMaxSlots) {
    // Out of slot space: attribute to the parent rather than throwing
    // from instrumentation (a profiler must never fail the workload).
    return parent;
  }
  const auto id = static_cast<ZoneId>(zones_.size());
  zones_.push_back(ZoneInfo{std::string(name), parent});
  ids_.emplace(std::make_pair(parent, std::string(name)), id);
  return id;
}

ProfileReport Profiler::report() const {
  // Snapshot the zone table, then merge the shards; the slots are
  // atomics, so concurrent owner writes are not corrupted (though a
  // mid-phase report may split a deposit pair).
  std::vector<ZoneInfo> zones;
  {
    support::MutexLock lk(mu_);
    zones = zones_;
  }
  const auto totals = shards_.totals(zones.size() * kCostCount);

  // Build the id-keyed tree bottom-up (parents always precede
  // children in zones_, so one forward pass suffices), then re-key by
  // name: children sorted, ids gone.
  std::vector<ProfileNode> nodes(zones.size());
  for (std::size_t z = 0; z < zones.size(); ++z) {
    nodes[z].name = zones[z].name;
    for (std::size_t c = 0; c < kCostCount; ++c) {
      nodes[z].costs[c] = totals[z * kCostCount + c];
    }
  }
  ProfileReport rep;
  for (std::size_t z = zones.size(); z-- > 1;) {
    nodes[zones[z].parent].children.push_back(std::move(nodes[z]));
  }
  rep.root = std::move(nodes[0]);
  sort_children(rep.root);
  return rep;
}

void Profiler::reset() { shards_.reset(); }

Profiler::Current Profiler::current() { return t_current; }

Profiler::Current Profiler::swap_current(Current next) { return std::exchange(t_current, next); }

// ---------------------------------------------------------------------------
// ProfileScope / ProfileZone

ProfileScope::ProfileScope(Profiler* prof) : saved_(Profiler::current()) {
  if (prof != nullptr && prof != saved_.prof) Profiler::swap_current({prof, Profiler::kRoot});
}

ProfileScope::~ProfileScope() { Profiler::swap_current(saved_); }

ProfileZone::ProfileZone(std::string_view name) : ProfileZone(name, Profiler::current().prof) {}

ProfileZone::ProfileZone(std::string_view name, Profiler* prof)
    : prof_(prof), zone_(Profiler::kRoot), saved_(Profiler::current()), start_us_(-1) {
  if (prof_ == nullptr) return;
  zone_ = prof_->intern(saved_.prof == prof_ ? saved_.zone : Profiler::kRoot, name);
  enter();
}

ProfileZone::ProfileZone(Profiler::ZoneId zone, Profiler* prof)
    : prof_(prof), zone_(zone), saved_(Profiler::current()), start_us_(-1) {
  if (prof_ != nullptr) enter();
}

void ProfileZone::enter() {
  Profiler::swap_current({prof_, zone_});
  if (prof_->wall_sampling()) start_us_ = wall_now_us();
}

ProfileZone::~ProfileZone() {
  if (prof_ == nullptr) return;
  prof_->add(zone_, Cost::kCalls, 1);
  if (start_us_ >= 0) {
    const std::int64_t elapsed = wall_now_us() - start_us_;
    prof_->add(zone_, Cost::kWallUs, elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
  }
  Profiler::swap_current(saved_);
}

}  // namespace tmwia::obs
