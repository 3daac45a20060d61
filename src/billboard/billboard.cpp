#include "tmwia/billboard/billboard.hpp"

#include <algorithm>
#include <limits>
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

// The two row sets tally() groups: posted BitVectors, and packed rows
// (a vote's rows of one width, or a channel's rows). Each gives the
// grouping a sort key per row and, for rows whose keys tie, an
// equality test.

class VectorRows {
 public:
  explicit VectorRows(std::span<const bits::BitVector> rows) : rows_(rows) {
    one_word_ = !rows.empty() && rows[0].words().size() == 1;
    for (const auto& r : rows) one_word_ = one_word_ && r.size() == rows[0].size();
  }
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  /// Is every row one word of one width? Then its word is its content.
  [[nodiscard]] bool one_word() const { return one_word_; }
  [[nodiscard]] std::uint64_t word(std::size_t i) const { return rows_[i].words()[0]; }
  [[nodiscard]] std::uint64_t hash(std::size_t i) const { return rows_[i].hash(); }
  [[nodiscard]] bool equal(std::size_t i, std::size_t j) const { return rows_[i] == rows_[j]; }
  [[nodiscard]] bits::BitVector vector(std::size_t i) const { return rows_[i]; }

 private:
  std::span<const bits::BitVector> rows_;
  bool one_word_ = false;
};

/// Rows `stride` words apart: row i holds width(i) bits in its first
/// word_count(width(i)) words. One width for every row (PackedRows), or
/// one per row (a channel's).
class WordRows {
 public:
  explicit WordRows(PackedRows rows)
      : words_(rows.words), stride_(bits::BitVector::word_count(rows.width)), width_(rows.width) {
    n_ = stride_ == 0 ? 0 : words_.size() / stride_;
    one_word_ = stride_ == 1;
  }
  WordRows(std::span<const std::uint64_t> words, std::size_t stride,
           std::span<const std::uint32_t> widths)
      : words_(words), stride_(stride), widths_(widths), n_(widths.size()) {
    one_word_ = n_ != 0 && bits::BitVector::word_count(widths[0]) == 1 &&
                std::ranges::all_of(widths, [&](std::uint32_t w) { return w == widths[0]; });
  }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool one_word() const { return one_word_; }
  [[nodiscard]] std::uint64_t word(std::size_t i) const { return words_[i * stride_]; }
  [[nodiscard]] std::uint64_t hash(std::size_t i) const {
    return bits::BitVector::hash(row(i), width(i));
  }
  /// Rows are equal when their widths and words are.
  [[nodiscard]] bool equal(std::size_t i, std::size_t j) const {
    return width(i) == width(j) && std::ranges::equal(row(i), row(j));
  }
  [[nodiscard]] bits::BitVector vector(std::size_t i) const {
    const auto words = row(i);
    bits::BitVector v(width(i));
    for (std::size_t w = 0; w < words.size(); ++w) v.set_word(w, words[w]);
    return v;
  }

 private:
  [[nodiscard]] std::size_t width(std::size_t i) const {
    return widths_.empty() ? width_ : widths_[i];
  }
  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t i) const {
    return words_.subspan(i * stride_, bits::BitVector::word_count(width(i)));
  }

  std::span<const std::uint64_t> words_;
  std::size_t stride_;
  std::size_t width_ = 0;                    ///< every row's, when widths_ is empty
  std::span<const std::uint32_t> widths_;
  std::size_t n_ = 0;
  bool one_word_ = false;
};

// Sort (key, index) pairs — the row's word when every row is one word,
// else a content hash — and count runs. Equal words are equal rows;
// within a hash run, full row comparisons tell distinct rows apart
// (collision guard). Only the few distinct survivors pay the final
// lexicographic sort: a word's numeric order is not lexicographic,
// since coordinate 0 is its low bit. The sort buffer is per thread,
// so the votes of a Small Radius iteration reuse one buffer.
template <typename Rows>
std::vector<VotedVector> group(const Rows& rows, std::uint32_t min_votes,
                               std::vector<std::uint32_t>* distinct,
                               std::span<std::uint32_t> group_of) {
  thread_local std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  const std::size_t n = rows.size();
  const bool one_word = rows.one_word();
  order.clear();
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    order.emplace_back(one_word ? rows.word(i) : rows.hash(i), static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end());

  std::vector<VotedVector> out;
  struct Distinct {
    std::uint32_t idx;
    std::uint32_t votes;
    std::uint32_t id;
  };
  std::vector<Distinct> run;  // distinct rows within one key run
  std::uint32_t next_id = 0;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    run.clear();
    for (; j < n && order[j].first == order[i].first; ++j) {
      const auto idx = order[j].second;
      Distinct* d = nullptr;
      for (auto& r : run) {
        if (one_word || rows.equal(r.idx, idx)) {
          d = &r;
          break;
        }
      }
      if (d == nullptr) {
        run.push_back({idx, 0, next_id++});
        if (distinct != nullptr) distinct->push_back(idx);
        d = &run.back();
      }
      ++d->votes;
      if (!group_of.empty()) group_of[idx] = d->id;
    }
    for (const auto& d : run) {
      if (d.votes >= min_votes) out.push_back({rows.vector(d.idx), d.votes});
    }
    i = j;
  }
  std::sort(out.begin(), out.end(), [](const VotedVector& a, const VotedVector& b) {
    return a.vec.lex_compare(b.vec) < 0;
  });
  return out;
}

}  // namespace

std::vector<VotedVector> tally(std::span<const bits::BitVector> posts,
                               std::uint32_t min_votes) {
  return group(VectorRows(posts), min_votes, nullptr, {});
}

std::vector<VotedVector> tally(PackedRows rows, std::uint32_t min_votes,
                               std::vector<std::uint32_t>& distinct,
                               std::span<std::uint32_t> group_of) {
  const WordRows packed(rows);
  if (group_of.size() != packed.size()) {
    throw std::invalid_argument("tally: group_of needs one entry per row");
  }
  distinct.clear();
  return group(packed, min_votes, &distinct, group_of);
}

Billboard::Billboard() { (void)board_metrics(); }

const Billboard::Channel* Billboard::find(const std::string& name) const {
  support::MutexLock lk(mu_);
  const auto it = channels_.find(name);
  return it == channels_.end() ? nullptr : &it->second;
}

void Billboard::post(const std::string& channel, matrix::PlayerId p, const bits::BitVector& v) {
  post_many(channel, {&p, 1}, {&v, 1});
}

void Billboard::post_many(const std::string& channel, std::span<const matrix::PlayerId> players,
                          std::span<const bits::BitVector> rows) {
  if (players.size() != rows.size()) {
    throw std::invalid_argument("Billboard::post_many: players/rows size mismatch");
  }
  if (players.empty()) return;
  board_metrics().posts.add(players.size());
  // Vector content is logged as (hash, size) — enough for the replayer
  // to distinguish posts without storing whole rows in the flight log.
  if (recorder_ != nullptr) {
    for (std::size_t i = 0; i < players.size(); ++i) {
      recorder_->vector_post(static_cast<std::uint32_t>(players[i]), channel, rows[i].hash(),
                             rows[i].size());
    }
  }
  Channel* ch = nullptr;
  {
    support::MutexLock lk(mu_);
    ch = &channels_[channel];
  }
  support::MutexLock lk(ch->mu);
  for (std::size_t i = 0; i < players.size(); ++i) {
    put(*ch, players[i], {rows[i].words(), rows[i].size()});
  }
}

void Billboard::put(Channel& ch, matrix::PlayerId p, PackedRows row) {
  if (row.width > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Billboard: a row of more than 2^32 - 1 bits");
  }
  ++ch.version;
  const std::size_t nw = row.words.size();
  if (nw > ch.stride) {
    // The widest row yet: re-lay every row at the new stride, once.
    std::vector<std::uint64_t> words(ch.width.size() * nw, 0);
    for (std::size_t r = 0; r < ch.width.size(); ++r) {
      std::copy_n(ch.words.begin() + static_cast<std::ptrdiff_t>(r * ch.stride), ch.stride,
                  words.begin() + static_cast<std::ptrdiff_t>(r * nw));
    }
    ch.words = std::move(words);
    ch.stride = nw;
  }
  if (p >= ch.slot.size()) ch.slot.resize(static_cast<std::size_t>(p) + 1, 0);
  std::uint32_t& slot = ch.slot[p];
  if (slot == 0) {
    ch.width.push_back(0);
    ch.words.resize(ch.words.size() + ch.stride, 0);
    slot = static_cast<std::uint32_t>(ch.width.size());
  }
  ch.width[slot - 1] = static_cast<std::uint32_t>(row.width);
  // Overwrite the row and zero the rest of its stride.
  const auto dst = ch.words.begin() + static_cast<std::ptrdiff_t>((slot - 1) * ch.stride);
  std::fill(std::copy(row.words.begin(), row.words.end(), dst),
            dst + static_cast<std::ptrdiff_t>(ch.stride), 0);
}

std::vector<VotedVector> Billboard::popular(const std::string& channel,
                                            std::uint32_t min_votes) const {
  board_metrics().reads.inc();
  obs::profile_cost(obs::Cost::kRankQueries, 1);
  const Channel* ch = find(channel);
  if (ch == nullptr) return {};
  support::MutexLock lk(ch->mu);
  if (ch->tally_valid && ch->tally_version == ch->version &&
      ch->tally_min_votes == min_votes) {
    board_metrics().tally_hits.inc();
    return ch->tally_cache;
  }
  ch->tally_cache = group(WordRows(ch->words, ch->stride, ch->width), min_votes, nullptr, {});
  ch->tally_version = ch->version;
  ch->tally_min_votes = min_votes;
  ch->tally_valid = true;
  return ch->tally_cache;
}

std::size_t Billboard::posters(const std::string& channel) const {
  const Channel* ch = find(channel);
  if (ch == nullptr) return 0;
  support::MutexLock lk(ch->mu);
  return ch->width.size();
}

bool Billboard::has_posted(const std::string& channel, matrix::PlayerId p) const {
  const Channel* ch = find(channel);
  if (ch == nullptr) return false;
  support::MutexLock lk(ch->mu);
  return p < ch->slot.size() && ch->slot[p] != 0;
}

std::vector<Billboard::ChannelDump> Billboard::export_posts() const {
  support::MutexLock lk(mu_);
  std::vector<ChannelDump> out;
  out.reserve(channels_.size());
  for (const auto& entry : channels_) {
    const Channel& ch = entry.second;
    support::MutexLock cl(ch.mu);
    if (ch.width.empty()) continue;  // a restored empty channel has nothing to dump
    const WordRows rows(ch.words, ch.stride, ch.width);
    ChannelDump dump;
    dump.channel = entry.first;
    dump.posts.reserve(rows.size());
    for (std::size_t p = 0; p < ch.slot.size(); ++p) {
      if (ch.slot[p] != 0) {
        dump.posts.emplace_back(static_cast<matrix::PlayerId>(p), rows.vector(ch.slot[p] - 1));
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
  channels_.clear();
  for (const auto& chd : dump) {
    auto& ch = channels_[chd.channel];
    support::MutexLock cl(ch.mu);
    for (const auto& [p, v] : chd.posts) put(ch, p, {v.words(), v.size()});
  }
}

}  // namespace tmwia::billboard
