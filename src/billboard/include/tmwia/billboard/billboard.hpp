// Billboard: the shared public posting surface.
//
// Besides raw probe results (kept by ProbeOracle), the algorithms post
// *vectors* — ZeroRadius step 4 has each player in one half publish its
// output vector for its object half, and the other half then adopts any
// vector "voted for by at least an alpha/2 fraction" of the posters.
// The billboard therefore supports named channels of (player -> vector)
// posts with vote aggregation by vector equality. A Zero Radius leaf's
// output is its players' probe results, which the oracle already holds,
// so the tower posts only internal nodes' outputs and Large Radius's
// group outputs here.
//
// A player has one current post per channel (the paper's billboard
// model, §1.1), so a channel stores exactly that: one row slot per
// poster. The rows are packed into one word buffer, one stride of words
// per row, with each row's bit width beside it. A repost overwrites the
// poster's row in place, so a channel's storage and the cost of reading
// it follow its live posts, not its history. Reads that arrive at the
// same channel version — the await-polling pattern of the distributed
// strategies, which asks posters()/popular() every round while a vote
// fills — hit the version-keyed tally cache instead of re-tallying.
//
// Thread safety: every channel has its own mutex, which serializes the
// posts and reads of that channel; posts to different channels run at
// once. The board's mutex guards only the channel map: a post or read
// looks its channel up under the board's mutex, releases it, and then
// takes the channel's. A thread never takes the board's mutex while it
// holds a channel's. Channels live as long as the board (restore_posts,
// a quiescent-point call, replaces them), so a looked-up channel stays
// valid after the board's mutex is released. Concurrent tasks that post
// (Large Radius groups) post under channel names of their own, so no
// two of them write the same (channel, player) row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/matrix/ids.hpp"
#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::obs {
class FlightRecorder;
}  // namespace tmwia::obs

namespace tmwia::billboard {

/// A vector together with how many players posted exactly it.
struct VotedVector {
  bits::BitVector vec;
  std::uint32_t votes = 0;
};

/// Group identical vectors of `posts` and return those with at least
/// `min_votes` occurrences, in deterministic (lexicographic) order.
/// This is the "voted for by at least a beta fraction" primitive of
/// Zero Radius step 4 and Small Radius step 1b.
std::vector<VotedVector> tally(std::span<const bits::BitVector> posts,
                               std::uint32_t min_votes);

/// Rows of one width, packed word by word: row i is the
/// BitVector::word_count(width) words from words[i * word_count(width)],
/// with BitVector's zero tail bits.
struct PackedRows {
  std::span<const std::uint64_t> words;
  std::size_t width = 0;
};

/// tally() over packed rows, from the same grouping, which also names
/// each row's distinct content: `distinct` is cleared and gets one row
/// index per distinct content (a row holding it), and `group_of[i]`
/// (one entry per row) becomes row i's position in `distinct`. Small
/// Radius takes a part's vote and its per-row Select memo from one
/// grouping of the part's leaf rows.
std::vector<VotedVector> tally(PackedRows rows, std::uint32_t min_votes,
                               std::vector<std::uint32_t>& distinct,
                               std::span<std::uint32_t> group_of);

class Billboard {
 public:
  /// Registers the board's metric counters (billboard.posts,
  /// billboard.reads, billboard.tally_cache_hits), so a metrics
  /// snapshot lists them, at zero, whether or not anything posted or
  /// read.
  Billboard();

  /// Attach the flight recorder that logs this board's vector posts
  /// (one vector_post record per post). Attach before the first post;
  /// the recorder must outlive the board's use; nullptr (the default)
  /// records nothing.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }
  [[nodiscard]] obs::FlightRecorder* recorder() const { return recorder_; }

  /// Player p posts vector v on `channel` (overwrites p's previous post
  /// on that channel, as a player has one current opinion per channel).
  /// A repost copies into p's existing row; a first post appends one.
  /// p must be below the run's player count: a channel's storage is
  /// O(largest poster id + posters).
  void post(const std::string& channel, matrix::PlayerId p, const bits::BitVector& v);

  /// Batched post: players[i] posts rows[i] (spans must be equal
  /// length, else std::invalid_argument and nothing is posted).
  /// Observably identical to posting each pair in index order — same
  /// recorder events, same totals — but the channel name is resolved
  /// and the channel's lock taken once per batch instead of once per
  /// row. Zero Radius publishes every internal node's outputs this way,
  /// and Large Radius each group's.
  void post_many(const std::string& channel, std::span<const matrix::PlayerId> players,
                 std::span<const bits::BitVector> rows);

  /// All distinct vectors on `channel` with >= min_votes posters,
  /// in deterministic (lexicographic) order. Cached per (channel
  /// version, min_votes): repeated polling of an unchanged channel does
  /// not re-tally.
  [[nodiscard]] std::vector<VotedVector> popular(const std::string& channel,
                                                 std::uint32_t min_votes) const;

  /// Number of players who posted on `channel`. O(1).
  [[nodiscard]] std::size_t posters(const std::string& channel) const;

  /// Has player p posted on `channel`? One lookup in its slot array.
  [[nodiscard]] bool has_posted(const std::string& channel, matrix::PlayerId p) const;

  /// One channel's posts in deterministic order, for checkpointing.
  struct ChannelDump {
    std::string channel;
    std::vector<std::pair<matrix::PlayerId, bits::BitVector>> posts;  ///< sorted by player
    bool operator==(const ChannelDump&) const = default;
  };
  /// Every channel (sorted by name) with its posts (sorted by player).
  [[nodiscard]] std::vector<ChannelDump> export_posts() const;
  /// Replace the board contents with `dump`. Unlike post(), restoring
  /// does not notify the flight recorder — the events were already in
  /// the log when the checkpoint was cut. Call only at quiescent
  /// points: it destroys every channel, and a concurrent post or read
  /// may hold one it looked up.
  void restore_posts(const std::vector<ChannelDump>& dump);

 private:
  struct Channel {
    /// Serializes this channel's posts and reads; popular() fills the
    /// tally memo under it, hence mutable.
    mutable support::Mutex mu;
    std::uint64_t version TMWIA_GUARDED_BY(mu) = 0;  ///< bumped on every post

    // slot[p] is 1 + the index of p's row (0: p never posted); rows are
    // each poster's current post, in first-post order. Row r holds
    // width[r] bits in the word_count(width[r]) words from
    // words[r * stride], and the rest of its stride is zero. The stride
    // is the word count of the widest row the channel has held.
    std::vector<std::uint32_t> slot TMWIA_GUARDED_BY(mu);
    std::vector<std::uint32_t> width TMWIA_GUARDED_BY(mu);
    std::vector<std::uint64_t> words TMWIA_GUARDED_BY(mu);
    std::size_t stride TMWIA_GUARDED_BY(mu) = 0;

    // popular() result memo for the polling pattern.
    mutable std::uint64_t tally_version TMWIA_GUARDED_BY(mu) = 0;
    mutable std::uint32_t tally_min_votes TMWIA_GUARDED_BY(mu) = 0;
    mutable bool tally_valid TMWIA_GUARDED_BY(mu) = false;
    mutable std::vector<VotedVector> tally_cache TMWIA_GUARDED_BY(mu);
  };

  /// The channel named `name`, or nullptr if nobody posted on it.
  const Channel* find(const std::string& name) const TMWIA_EXCLUDES(mu_);

  /// The one write path: p's post on `ch` becomes `row`, a PackedRows
  /// of one row.
  static void put(Channel& ch, matrix::PlayerId p, PackedRows row) TMWIA_REQUIRES(ch.mu);

  obs::FlightRecorder* recorder_ = nullptr;  ///< set before the first post, then read-only
  mutable support::Mutex mu_;
  std::unordered_map<std::string, Channel> channels_ TMWIA_GUARDED_BY(mu_);
};

}  // namespace tmwia::billboard
