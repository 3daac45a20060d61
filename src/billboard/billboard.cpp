#include "tmwia/billboard/billboard.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::billboard {
namespace {

struct BoardMetrics {
  obs::MetricsRegistry::Counter posts =
      obs::MetricsRegistry::global().counter("billboard.posts");
  obs::MetricsRegistry::Counter reads =
      obs::MetricsRegistry::global().counter("billboard.reads");
  obs::MetricsRegistry::Counter tally_hits =
      obs::MetricsRegistry::global().counter("billboard.tally_cache_hits");
};

const BoardMetrics& board_metrics() {
  static const BoardMetrics m;
  return m;
}

}  // namespace

void Billboard::post(const std::string& channel, matrix::PlayerId p, const bits::BitVector& v) {
  board_metrics().posts.inc();
  // Vector content is logged as (hash, size) — enough for the replayer
  // to distinguish posts without storing whole rows in the flight log.
  if (recorder_ != nullptr) {
    recorder_->vector_post(static_cast<std::uint32_t>(p), channel, v.hash(), v.size());
  }
  support::MutexLock lk(mu_);
  put(channels_[channel], p, v);
}

void Billboard::post_many(const std::string& channel, std::span<const matrix::PlayerId> players,
                          std::span<const bits::BitVector> rows,
                          std::optional<std::uint32_t> order) {
  if (players.size() != rows.size()) {
    throw std::invalid_argument("Billboard::post_many: players/rows size mismatch");
  }
  if (players.empty()) return;
  board_metrics().posts.add(players.size());
  if (recorder_ != nullptr) {
    for (std::size_t i = 0; i < players.size(); ++i) {
      recorder_->vector_post(static_cast<std::uint32_t>(players[i]), channel, rows[i].hash(),
                             rows[i].size());
    }
  }
  support::MutexLock lk(mu_);
  auto& ch = channels_[channel];
  if (!order.has_value()) {
    for (std::size_t i = 0; i < players.size(); ++i) put(ch, players[i], rows[i]);
    return;
  }
  if (!section_.has_value()) {
    throw std::logic_error("Billboard::post_many: an ordered post needs an open section");
  }
  for (std::size_t i = 0; i < players.size(); ++i) put_ordered(ch, players[i], rows[i], *order);
}

void Billboard::put_ordered(Channel& ch, matrix::PlayerId p, const bits::BitVector& v,
                            std::uint32_t order) {
  const auto& shared = section_->shared;
  const auto it = std::lower_bound(shared.begin(), shared.end(), p);
  if (it == shared.end() || *it != p) {
    put(ch, p, v);
    return;
  }
  auto& orders = section_->orders[&ch];
  if (orders.empty()) orders.assign(shared.size(), 0);
  auto& mark = orders[static_cast<std::size_t>(it - shared.begin())];
  const std::uint64_t rank = std::uint64_t{order} + 1;
  if (mark > rank) return;  // a later task already owns this row
  mark = rank;
  put(ch, p, v);
}

Billboard::Section::Section(Billboard& board, std::vector<matrix::PlayerId> shared)
    : board_(&board) {
  std::sort(shared.begin(), shared.end());
  shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
  support::MutexLock lk(board_->mu_);
  if (board_->section_.has_value()) {
    throw std::logic_error("Billboard::Section: a section is already open");
  }
  board_->section_.emplace();
  board_->section_->shared = std::move(shared);
}

Billboard::Section::~Section() {
  support::MutexLock lk(board_->mu_);
  board_->section_.reset();
}

void Billboard::put(Channel& ch, matrix::PlayerId p, const bits::BitVector& v) {
  ++ch.version;
  if (p >= ch.slot.size()) ch.slot.resize(static_cast<std::size_t>(p) + 1, 0);
  std::uint32_t& slot = ch.slot[p];
  if (slot != 0) {
    ch.rows[slot - 1] = v;  // reuses the row's storage (same width: no allocation)
    return;
  }
  ch.rows.push_back(v);
  slot = static_cast<std::uint32_t>(ch.rows.size());
}

std::vector<VotedVector> tally(std::span<const bits::BitVector> posts,
                               std::uint32_t min_votes) {
  // Sort (hash, index) pairs — one content hash per post, then a cheap
  // flat sort — and count runs. Full vector comparisons happen only
  // inside a hash run (collision guard), and only the few distinct
  // survivors pay the final lexicographic sort.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(posts.size());
  for (std::size_t i = 0; i < posts.size(); ++i) {
    order.emplace_back(posts[i].hash(), static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end());

  std::vector<VotedVector> out;
  struct Distinct {
    std::uint32_t idx;
    std::uint32_t votes;
  };
  std::vector<Distinct> run;  // distinct vectors within one hash run
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i;
    run.clear();
    for (; j < order.size() && order[j].first == order[i].first; ++j) {
      const auto idx = order[j].second;
      bool found = false;
      for (auto& d : run) {
        if (posts[d.idx] == posts[idx]) {
          ++d.votes;
          found = true;
          break;
        }
      }
      if (!found) run.push_back({idx, 1});
    }
    for (const auto& d : run) {
      if (d.votes >= min_votes) out.push_back({posts[d.idx], d.votes});
    }
    i = j;
  }
  std::sort(out.begin(), out.end(), [](const VotedVector& a, const VotedVector& b) {
    return a.vec.lex_compare(b.vec) < 0;
  });
  return out;
}

std::vector<VotedVector> Billboard::popular(const std::string& channel,
                                            std::uint32_t min_votes) const {
  board_metrics().reads.inc();
  obs::profile_cost(obs::Cost::kRankQueries, 1);
  support::MutexLock lk(mu_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return {};
  auto& ch = it->second;
  if (ch.tally_valid && ch.tally_version == ch.version && ch.tally_min_votes == min_votes) {
    board_metrics().tally_hits.inc();
    return ch.tally_cache;
  }
  ch.tally_cache = tally(ch.rows, min_votes);
  ch.tally_version = ch.version;
  ch.tally_min_votes = min_votes;
  ch.tally_valid = true;
  return ch.tally_cache;
}

std::size_t Billboard::posters(const std::string& channel) const {
  support::MutexLock lk(mu_);
  const auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.rows.size();
}

bool Billboard::has_posted(const std::string& channel, matrix::PlayerId p) const {
  support::MutexLock lk(mu_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return false;
  const auto& slot = it->second.slot;
  return p < slot.size() && slot[p] != 0;
}

Billboard::ChannelView Billboard::snapshot(const std::string& channel) const {
  support::MutexLock lk(mu_);
  ChannelView view;
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return view;
  const auto& ch = it->second;
  view.players.reserve(ch.rows.size());
  view.rows.reserve(ch.rows.size());
  for (std::size_t p = 0; p < ch.slot.size(); ++p) {
    if (ch.slot[p] == 0) continue;
    view.players.push_back(static_cast<matrix::PlayerId>(p));
    view.rows.push_back(ch.rows[ch.slot[p] - 1]);
  }
  return view;
}

void Billboard::clear(const std::string& channel) {
  support::MutexLock lk(mu_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return;
  if (section_.has_value()) section_->orders.erase(&it->second);
  channels_.erase(it);
}

std::size_t Billboard::total_posts() const {
  support::MutexLock lk(mu_);
  std::size_t t = 0;
  for (const auto& [name, ch] : channels_) t += ch.rows.size();
  return t;
}

std::vector<Billboard::ChannelDump> Billboard::export_posts() const {
  support::MutexLock lk(mu_);
  std::vector<ChannelDump> out;
  out.reserve(channels_.size());
  for (const auto& [name, ch] : channels_) {
    if (ch.rows.empty()) continue;  // a restored empty channel has nothing to dump
    ChannelDump dump;
    dump.channel = name;
    dump.posts.reserve(ch.rows.size());
    for (std::size_t p = 0; p < ch.slot.size(); ++p) {
      if (ch.slot[p] != 0) {
        dump.posts.emplace_back(static_cast<matrix::PlayerId>(p), ch.rows[ch.slot[p] - 1]);
      }
    }
    out.push_back(std::move(dump));
  }
  std::sort(out.begin(), out.end(),
            [](const ChannelDump& a, const ChannelDump& b) { return a.channel < b.channel; });
  return out;
}

void Billboard::restore_posts(const std::vector<ChannelDump>& dump) {
  support::MutexLock lk(mu_);
  if (section_.has_value()) section_->orders.clear();
  channels_.clear();
  for (const auto& chd : dump) {
    auto& ch = channels_[chd.channel];
    for (const auto& [p, v] : chd.posts) put(ch, p, v);
  }
}

}  // namespace tmwia::billboard
