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
  obs::MetricsRegistry::Counter consolidations =
      obs::MetricsRegistry::global().counter("billboard.consolidations");
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
  auto& ch = channels_[channel];
  ch.pending.emplace_back(p, v);
  ++ch.version;
}

void Billboard::post_many(const std::string& channel, std::span<const matrix::PlayerId> players,
                          std::span<const bits::BitVector> rows) {
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
  ch.pending.reserve(ch.pending.size() + players.size());
  for (std::size_t i = 0; i < players.size(); ++i) {
    ch.pending.emplace_back(players[i], rows[i]);
  }
  ch.version += players.size();
}

void Billboard::consolidate(Channel& ch) const {
  if (ch.pending.empty()) return;
  board_metrics().consolidations.inc();

  // Later posts by the same player overwrite earlier ones; a stable
  // sort keeps arrival order within a player, so walking runs and
  // keeping the last entry applies the overwrites.
  std::stable_sort(ch.pending.begin(), ch.pending.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  const matrix::PlayerId max_pending = ch.pending.back().first;
  const std::size_t new_size =
      std::max<std::size_t>(ch.posted.size(), static_cast<std::size_t>(max_pending) + 1);

  // Word-parallel widening copy of the old poster bitmap (unused tail
  // bits of the old vector are zero by class invariant).
  bits::BitVector posted(new_size);
  const auto old_words = ch.posted.words();
  for (std::size_t w = 0; w < old_words.size(); ++w) posted.set_word(w, old_words[w]);
  for (const auto& [p, v] : ch.pending) posted.set(p, true);

  // Merge the two player-ordered sequences (existing rows enumerate via
  // the old index) into a dense row array aligned with the new index.
  std::vector<bits::BitVector> rows;
  rows.reserve(posted.count_ones());
  const auto old_players = ch.rank.one_positions();
  std::size_t oi = 0;  // cursor into old_players / ch.rows
  std::size_t pi = 0;  // cursor into pending runs
  while (oi < old_players.size() || pi < ch.pending.size()) {
    const bool take_pending =
        oi >= old_players.size() ||
        (pi < ch.pending.size() && ch.pending[pi].first <= old_players[oi]);
    if (take_pending) {
      const matrix::PlayerId p = ch.pending[pi].first;
      std::size_t last = pi;
      while (last + 1 < ch.pending.size() && ch.pending[last + 1].first == p) ++last;
      rows.push_back(std::move(ch.pending[last].second));
      pi = last + 1;
      if (oi < old_players.size() && old_players[oi] == p) ++oi;  // overwritten
    } else {
      rows.push_back(std::move(ch.rows[oi]));
      ++oi;
    }
  }

  ch.pending.clear();
  ch.posted = std::move(posted);
  ch.rank = bits::RankSelect(ch.posted);
  ch.rows = std::move(rows);
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
  consolidate(ch);
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
  if (it == channels_.end()) return 0;
  consolidate(it->second);
  return it->second.rank.ones();
}

bool Billboard::has_posted(const std::string& channel, matrix::PlayerId p) const {
  support::MutexLock lk(mu_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return false;
  consolidate(it->second);
  return p < it->second.posted.size() && it->second.posted.get(p);
}

Billboard::ChannelView Billboard::snapshot(const std::string& channel) const {
  support::MutexLock lk(mu_);
  ChannelView view;
  const auto it = channels_.find(channel);
  if (it == channels_.end()) return view;
  consolidate(it->second);
  view.players = it->second.rank.one_positions();
  view.rows = it->second.rows;
  return view;
}

void Billboard::clear(const std::string& channel) {
  support::MutexLock lk(mu_);
  channels_.erase(channel);
}

std::size_t Billboard::total_posts() const {
  support::MutexLock lk(mu_);
  std::size_t t = 0;
  for (auto& [name, ch] : channels_) {
    consolidate(ch);
    t += ch.rows.size();
  }
  return t;
}

std::vector<Billboard::ChannelDump> Billboard::export_posts() const {
  support::MutexLock lk(mu_);
  std::vector<ChannelDump> out;
  out.reserve(channels_.size());
  for (auto& [name, ch] : channels_) {
    consolidate(ch);
    if (ch.rows.empty()) continue;  // a restored empty channel has nothing to dump
    ChannelDump dump;
    dump.channel = name;
    const auto players = ch.rank.one_positions();
    dump.posts.reserve(players.size());
    for (std::size_t i = 0; i < players.size(); ++i) {
      dump.posts.emplace_back(players[i], ch.rows[i]);
    }
    out.push_back(std::move(dump));
  }
  std::sort(out.begin(), out.end(),
            [](const ChannelDump& a, const ChannelDump& b) { return a.channel < b.channel; });
  return out;
}

void Billboard::restore_posts(const std::vector<ChannelDump>& dump) {
  support::MutexLock lk(mu_);
  channels_.clear();
  for (const auto& chd : dump) {
    auto& ch = channels_[chd.channel];
    for (const auto& [p, v] : chd.posts) {
      ch.pending.emplace_back(p, v);
      ++ch.version;
    }
  }
}

}  // namespace tmwia::billboard
