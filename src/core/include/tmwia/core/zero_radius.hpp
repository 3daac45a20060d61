// Algorithm Zero Radius (Fig. 2): preference reconstruction for
// communities that agree *exactly*.
//
// Recursive halving: split players and objects in half; each player
// half reconstructs its own object half recursively, then adopts the
// other half's result by voting + Select with distance bound 0. Leaf
// instances (min(|P|, |O|) below the 8c·ln(n)/alpha threshold) probe
// everything. Theorem 3.1: with >= alpha*n players sharing one vector,
// all of them output it w.h.p. within O(log n / alpha) probes each.
//
// The implementation is generic over the *value space* because Large
// Radius (step 4) reruns Zero Radius where an "object" is a whole
// object group O_l and its "value" is one of the O(1/alpha) Coalesce
// candidates for that group: probing such a virtual object means
// running Select over the candidates on the group's primitive objects.
//
// Space concept:
//   typename Space::Value           — regular + totally ordered
//   Value probe(PlayerId, uint32_t) — probe object by *space index*,
//                                     charging the player's cost
//   (optional) typename Space::Row  — packed row representation; when
//                                     it is bits::BitVector the whole
//                                     recursion runs word-parallel
//                                     (leaf rows, votes, Select-0)
//                                     instead of on byte vectors.
//                                     Values must be 0/1. A packed
//                                     space also provides
//       void probe_row(PlayerId, std::span<const uint32_t>, Row&)
//                                   — one batched leaf row of probes
//       void publish_rows(std::string_view channel,
//                         std::span<const PlayerId>, std::span<const Row>)
//                                   — mirror an internal node's outputs
//                                     to a billboard
//       void publish_leaf(std::string_view channel,
//                         std::span<const PlayerId>)
//                                   — a leaf's publication: its outputs
//                                     are probe results, so it posts
//                                     nothing; only the fault
//                                     bookkeeping of its posts is kept
//   (optional) obs::FlightRecorder* recorder()
//                                   — the recorder of the run being
//                                     probed; receives the zr.adopt notes
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "tmwia/bits/bitvector.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/select.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/matrix/ids.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/rng/partition.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::core {

using matrix::PlayerId;

/// Leaf threshold of Fig. 2 step 1: min(|P|, |O|) below this probes
/// everything.
inline std::size_t zero_radius_leaf_threshold(std::size_t n_total, double alpha,
                                              const Params& params) {
  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n_total, 3)));
  return std::max(params.zr_min_leaf, ceil_count(params.zr_leaf_c * ln_n / alpha));
}

/// Vote quorum of Fig. 2 step 4: a vector is a candidate once at least
/// this many of the `posters` sibling players posted it.
inline std::size_t zero_radius_min_votes(std::size_t posters, double alpha,
                                         const Params& params) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(params.zr_vote_frac * alpha * static_cast<double>(posters))));
}

/// The recursion tree of Fig. 2, derived once from the shared coins.
/// Node t halves its players and then its objects with
/// rng.split(t, 0x5eed) (step 2); its children carry tags 2t+1 and 2t+2.
/// The coins are public (§1.1 models them as randomness posted on the
/// billboard), so one immutable plan serves the centralized engine
/// below and every per-player ZeroRadiusStrategy of a distributed run
/// (zero_radius_strategy.hpp) — which is what makes their outputs
/// bit-for-bit comparable.
class ZeroRadiusPlan {
 public:
  struct Node {
    std::uint64_t tag = 1;
    std::vector<PlayerId> players;       ///< the node's player ids
    std::vector<std::uint32_t> objects;  ///< the node's object ids
    /// Ascending positions in `players`/`objects` of child 2t+1 ([0])
    /// and child 2t+2 ([1]); empty at a leaf.
    std::array<std::vector<std::uint32_t>, 2> player_pos, object_pos;
    std::size_t first_child = 0;  ///< index of child 2t+1 (2t+2 follows); 0 at a leaf

    [[nodiscard]] bool leaf() const { return first_child == 0; }
  };

  /// A node is a leaf when min(|P|, |O|) < `leaf_threshold` (step 1),
  /// which must be at least 2 for the halving to bottom out.
  ZeroRadiusPlan(std::vector<PlayerId> players, std::vector<std::uint32_t> objects,
                 std::size_t leaf_threshold, const rng::Rng& rng);

  [[nodiscard]] const Node& root() const { return nodes_.front(); }
  /// Child 2t+1 (`half` 0) or 2t+2 (`half` 1) of an internal node.
  [[nodiscard]] const Node& child(const Node& node, std::size_t half) const {
    return nodes_[node.first_child + half];
  }

 private:
  std::vector<Node> nodes_;  // breadth-first, siblings adjacent
};

inline ZeroRadiusPlan::ZeroRadiusPlan(std::vector<PlayerId> players,
                                      std::vector<std::uint32_t> objects,
                                      std::size_t leaf_threshold, const rng::Rng& rng) {
  if (leaf_threshold < 2) {
    // A 1x1 node would split into an empty half and itself forever.
    throw std::invalid_argument("ZeroRadiusPlan: leaf threshold below 2");
  }
  const auto positions = [](std::size_t n) {
    std::vector<std::uint32_t> v(n);
    std::iota(v.begin(), v.end(), 0u);
    return v;
  };
  const auto gather = [](const auto& src, const std::vector<std::uint32_t>& idx) {
    std::remove_cvref_t<decltype(src)> out;
    out.reserve(idx.size());
    for (std::uint32_t i : idx) out.push_back(src[i]);
    return out;
  };
  Node& root = nodes_.emplace_back();
  root.players = std::move(players);
  root.objects = std::move(objects);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    if (std::min(node.players.size(), node.objects.size()) < leaf_threshold) continue;
    rng::Rng split_rng = rng.split(node.tag, 0x5eed);
    std::tie(node.player_pos[0], node.player_pos[1]) =
        rng::random_half_split(positions(node.players.size()), split_rng);
    std::tie(node.object_pos[0], node.object_pos[1]) =
        rng::random_half_split(positions(node.objects.size()), split_rng);
    std::array<Node, 2> kids;
    for (std::size_t h = 0; h < 2; ++h) {
      kids[h].tag = node.tag * 2 + 1 + h;
      kids[h].players = gather(node.players, node.player_pos[h]);
      kids[h].objects = gather(node.objects, node.object_pos[h]);
    }
    node.first_child = nodes_.size();
    // The pushes may move the nodes: `node` is not used past here.
    nodes_.push_back(std::move(kids[0]));
    nodes_.push_back(std::move(kids[1]));
  }
}

namespace detail {

// Row representation of one player's per-object values. A space opts
// into the packed form by declaring `using Row = bits::BitVector`
// (BitSpace does); everything else gets std::vector<Value>. All row
// access below goes through these helpers so the recursion body is
// written once for both shapes.
template <typename Space, typename = void>
struct RowTraits {
  static constexpr bool packed = false;
  using Row = std::vector<typename Space::Value>;
};

template <typename Space>
struct RowTraits<Space, std::void_t<typename Space::Row>> {
  static constexpr bool packed = true;
  using Row = typename Space::Row;
  static_assert(std::is_same_v<Row, bits::BitVector>,
                "packed Zero Radius rows must be bits::BitVector");
  static_assert(requires(Space& s, PlayerId p, std::span<const std::uint32_t> objs, Row& row,
                         std::span<const PlayerId> ps, std::span<const Row> rows) {
                  s.probe_row(p, objs, row);
                  s.publish_rows(std::string_view{}, ps, rows);
                  s.publish_leaf(std::string_view{}, ps);
                },
                "a packed Zero Radius space provides probe_row, publish_rows and publish_leaf");
};

inline int row_cmp(const bits::BitVector& a, const bits::BitVector& b) {
  return a.lex_compare(b);
}

template <typename Value>
int row_cmp(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

// Optional degradation hooks of the Space concept (see faults/). A
// space that tracks fault state exposes:
//   bool is_failed(PlayerId)                 — player crashed/degraded;
//                                              skip its probes, exclude
//                                              it from votes
//   bool post_lost(PlayerId, string_view)    — this player's post on
//                                              this channel was lost
//   void note_orphan(PlayerId)               — player lost its quorum
// Spaces without the hooks (tests, plain adapters) behave exactly as
// before — the helpers compile to constants.

template <typename Space>
bool space_is_failed(Space& space, PlayerId p) {
  if constexpr (requires { { space.is_failed(p) } -> std::convertible_to<bool>; }) {
    return space.is_failed(p);
  } else {
    (void)space;
    (void)p;
    return false;
  }
}

template <typename Space>
bool space_post_lost(Space& space, PlayerId p, std::string_view channel) {
  if constexpr (requires { { space.post_lost(p, channel) } -> std::convertible_to<bool>; }) {
    return space.post_lost(p, channel);
  } else {
    (void)space;
    (void)p;
    (void)channel;
    return false;
  }
}

template <typename Space>
bool space_faults_active(Space& space) {
  if constexpr (requires { { space.faults_active() } -> std::convertible_to<bool>; }) {
    return space.faults_active();
  } else {
    (void)space;
    return false;
  }
}

template <typename Space>
void space_note_orphan(Space& space, PlayerId p) {
  if constexpr (requires { space.note_orphan(p); }) {
    space.note_orphan(p);
  } else {
    (void)space;
    (void)p;
  }
}

/// The flight recorder of the run the space probes for (BitSpace and
/// Large Radius's VirtualSpace hand out their oracle's); null for a
/// space without one.
template <typename Space>
obs::FlightRecorder* space_recorder(Space& space) {
  if constexpr (requires { { space.recorder() } -> std::convertible_to<obs::FlightRecorder*>; }) {
    return space.recorder();
  } else {
    (void)space;
    return nullptr;
  }
}

/// The winner of Select with distance bound 0: an alive candidate
/// first, then fewest mismatches, then the lexicographically smallest
/// row. select_zero's generic-row scan below and the per-player
/// ZeroRadiusStrategy both decide with it.
template <typename Row>
std::size_t select_zero_winner(const std::vector<Row>& cands, const std::vector<bool>& alive,
                               const std::vector<std::size_t>& mismatches) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < cands.size(); ++i) {
    if (alive[i] != alive[best]) {
      if (alive[i]) best = i;
    } else if (mismatches[i] != mismatches[best]) {
      if (mismatches[i] < mismatches[best]) best = i;
    } else if (row_cmp(cands[i], cands[best]) < 0) {
      best = i;
    }
  }
  return best;
}

/// Select with distance bound 0: probe distinguishing positions in
/// ascending order, drop candidates on their first mismatch, and return
/// the winner's index (select_zero_winner). Packed rows run Select
/// itself with bound 0, uncharged: adoption is not a Select call in the
/// metrics, and the space charges its probes. Alive means no mismatch,
/// so Select's "fewest disagreements, then lexicographic" winner is
/// select_zero_winner's. Generic value-rows scan coordinate by
/// coordinate.
template <typename Space, typename Row>
std::size_t select_zero(Space& space, PlayerId p, const std::vector<Row>& cands,
                        std::span<const std::uint32_t> object_ids) {
  if constexpr (RowTraits<Space>::packed) {
    return select_uncharged(cands, 0,
                            [&](std::uint32_t j) {
                              return space.probe(p, object_ids[j]) !=
                                     typename Space::Value{0};
                            })
        .index;
  } else {
    const std::size_t k = cands.size();
    if (k == 1) return 0;
    // Per-thread scratch: this runs once per adopter per recursion node
    // (millions of calls), and probes never re-enter it.
    thread_local std::vector<bool> alive;
    thread_local std::vector<std::size_t> mismatches;
    alive.assign(k, true);
    mismatches.assign(k, 0);
    std::size_t alive_count = k;
    for (std::size_t j = 0; j < object_ids.size() && alive_count > 1; ++j) {
      bool differs = false;
      std::size_t first_alive = k;
      for (std::size_t i = 0; i < k && !differs; ++i) {
        if (!alive[i]) continue;
        if (first_alive == k) {
          first_alive = i;
        } else if (!(cands[i][j] == cands[first_alive][j])) {
          differs = true;
        }
      }
      if (!differs) continue;
      const auto val = space.probe(p, object_ids[j]);
      for (std::size_t i = 0; i < k; ++i) {
        if (alive[i] && !(cands[i][j] == val)) {
          ++mismatches[i];
          alive[i] = false;
          --alive_count;
        }
      }
    }
    return select_zero_winner(cands, alive, mismatches);
  }
}

/// Sort row pointers lexicographically and visit each run of equal
/// rows: the shared grouping engine behind the vote tallies below
/// (replaces a std::map of whole rows — same ascending order, no
/// node-per-row allocation).
template <typename Row, typename Visit>
void for_each_row_group(const std::vector<Row>& posts, Visit&& visit) {
  std::vector<const Row*> ptrs;
  ptrs.reserve(posts.size());
  for (const auto& r : posts) ptrs.push_back(&r);
  std::sort(ptrs.begin(), ptrs.end(), [](const Row* a, const Row* b) {
    return row_cmp(*a, *b) < 0;
  });
  std::size_t i = 0;
  while (i < ptrs.size()) {
    std::size_t j = i + 1;
    while (j < ptrs.size() && row_cmp(*ptrs[i], *ptrs[j]) == 0) ++j;
    visit(*ptrs[i], j - i);
    i = j;
  }
}

/// Group equal rows and return those with >= min_votes occurrences,
/// sorted lexicographically (deterministic candidates).
template <typename Row>
std::vector<Row> popular_vectors(const std::vector<Row>& posts, std::size_t min_votes) {
  std::vector<Row> out;
  for_each_row_group(posts, [&](const Row& row, std::size_t count) {
    if (count >= min_votes) out.push_back(row);
  });
  return out;
}

/// The orphan-adoption candidate list: the `limit` most-supported
/// distinct rows of `posts` (ties broken lexicographically). Used when
/// a vote loses quorum and the adopters fall back to whatever the
/// survivors published.
template <typename Row>
std::vector<Row> top_vectors(const std::vector<Row>& posts, std::size_t limit) {
  std::vector<std::pair<std::size_t, const Row*>> ranked;
  for_each_row_group(posts, [&](const Row& row, std::size_t count) {
    ranked.emplace_back(count, &row);
  });
  // for_each_row_group visits ascending, so a stable sort by count
  // descending keeps the lexicographic tie-break.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  if (ranked.size() > limit) ranked.resize(limit);
  std::vector<Row> out;
  out.reserve(ranked.size());
  for (const auto& [c, row] : ranked) out.push_back(*row);
  return out;
}

template <typename Space>
struct ZeroRadiusRun {
  Space& space;
  double alpha;
  const Params& params;
  const ZeroRadiusPlan& plan;

  using Row = typename RowTraits<Space>::Row;
  using Outputs = std::vector<Row>;  // per player, per object
  using Node = ZeroRadiusPlan::Node;

  Outputs run(const Node& node) {
    const auto& players = node.players;
    const auto& objects = node.objects;
    Outputs out(players.size(), Row(objects.size()));
    if (players.empty() || objects.empty()) return out;

    if (node.leaf()) {
      // Step 1: leaf — every player probes every object. Crashed /
      // degraded players sit the leaf out (their rows stay default and
      // they are excluded from votes higher up).
      engine::parallel_for(0, players.size(), [&](std::size_t i) {
        if (space_is_failed(space, players[i])) return;
        if constexpr (RowTraits<Space>::packed) {
          // Batched row probe (BitSpace → oracle probe_block): one call
          // per leaf row instead of one per bit.
          space.probe_row(players[i], std::span<const std::uint32_t>(objects), out[i]);
        } else {
          for (std::size_t j = 0; j < objects.size(); ++j) {
            out[i][j] = space.probe(players[i], objects[j]);
          }
        }
      });
      publish(node, out);
      return out;
    }

    // Steps 2-3: the plan's halving of players and objects (shared
    // coins); both halves recurse on their own corner.
    const Outputs r[2] = {run(plan.child(node, 0)), run(plan.child(node, 1))};

    // For packed rows every scatter below deposits through the same
    // two position sets, so build each set's word mask once per node
    // and reuse it for every player (adopters and own-half alike).
    const Mask masks[2] = {make_mask(node.object_pos[0], objects.size()),
                           make_mask(node.object_pos[1], objects.size())};

    // Step 4: cross-adoption via voting + Select with bound 0.
    adopt(node, 0, r[1], masks[1], out);
    adopt(node, 1, r[0], masks[0], out);

    // Own-half results copy straight through.
    for (std::size_t h = 0; h < 2; ++h) {
      scatter_outputs(r[h], node.player_pos[h], node.object_pos[h], masks[h], out);
    }

    publish(node, out);
    return out;
  }

 private:
  /// Position-set type for the per-node scatter masks: a packed word
  /// mask when rows are packed (reused across every row of the node),
  /// nothing otherwise.
  struct NoMask {};
  using Mask = std::conditional_t<RowTraits<Space>::packed, bits::BitVector, NoMask>;

  static Mask make_mask(const std::vector<std::uint32_t>& positions, std::size_t n) {
    if constexpr (RowTraits<Space>::packed) {
      bits::BitVector mask(n);
      for (std::uint32_t p : positions) mask.set(p, true);
      return mask;
    } else {
      (void)positions;
      (void)n;
      return {};
    }
  }

  /// row[obj_pos[j]] = src[j] for all j — one masked word-deposit per
  /// destination word for packed rows, element loop otherwise.
  static void scatter_row(Row& row, const Row& src,
                          const std::vector<std::uint32_t>& obj_pos, const Mask& mask) {
    if constexpr (RowTraits<Space>::packed) {
      (void)obj_pos;
      row.scatter_masked(src, mask);
    } else {
      (void)mask;
      for (std::size_t j = 0; j < obj_pos.size(); ++j) row[obj_pos[j]] = src[j];
    }
  }

  /// The players of `node`'s child `half` adopt the other child's
  /// outputs `posts` for that child's objects (`obj_mask` marks their
  /// positions in the node's object list). The posting child published
  /// under its own tag, which is what the post-loss filter keys on.
  void adopt(const Node& node, std::size_t half, const Outputs& posts, const Mask& obj_mask,
             Outputs& out) {
    const auto& adopters = plan.child(node, half).players;
    const Node& posting = plan.child(node, 1 - half);
    const auto& posters = posting.players;
    const auto& object_ids = posting.objects;
    // Byzantine hook: the space may rewrite what individual posters
    // *publish* for voting (dishonest eBay users, per the paper's
    // intro) — their own outputs are untouched, only their influence
    // on the vote is. Probing-based Select then defends the adopters:
    // a forged popular vector is eliminated the first time it disagrees
    // with the adopter's own truth on a distinguishing coordinate.
    //
    // Both the rewrite and the survivor filter below mutate the post
    // list; the fault-free, honest run (the common case by far) needs
    // neither, so the posts are only copied when a fault injector or an
    // active corrupter is present. A space with the hook also says
    // whether it would rewrite anything right now (corrupts_posts).
    constexpr bool kHasCorrupt =
        requires(Space& s, const std::vector<PlayerId>& ps,
                 std::span<const std::uint32_t> objs, Outputs& posted) {
          s.corrupt_posts(ps, objs, posted);
        };
    bool mutate = space_faults_active(space);
    if constexpr (kHasCorrupt) mutate = mutate || space.corrupts_posts();

    Outputs filtered;
    const Outputs* votable = &posts;
    std::size_t kept = posts.size();
    if (mutate) {
      filtered = posts;
      if constexpr (kHasCorrupt) {
        space.corrupt_posts(posters, std::span(object_ids), filtered);
      }
      // Degradation: crashed/degraded posters and lost posts never made
      // it to the billboard — the vote and its quorum threshold are
      // taken over the survivors only. With no faults this keeps every
      // post and the paper's threshold exactly.
      const std::string poster_channel = "zr/" + std::to_string(posting.tag);
      kept = 0;
      for (std::size_t i = 0; i < posters.size(); ++i) {
        if (space_is_failed(space, posters[i]) ||
            space_post_lost(space, posters[i], poster_channel)) {
          continue;
        }
        if (kept != i) filtered[kept] = std::move(filtered[i]);
        ++kept;
      }
      filtered.resize(kept);
      votable = &filtered;
    }

    std::vector<Row> candidates =
        popular_vectors(*votable, zero_radius_min_votes(kept, alpha, params));

    // Orphan adoption: the committee lost its quorum (mass crash or
    // post loss). Rather than leave the adopters with garbage, fall
    // back to the surviving posts themselves, most-supported first —
    // probing-based Select still rejects anything that disagrees with
    // the adopter's own truth.
    //
    // Strictly gated on an ACTIVE fault injector: in a fault-free run a
    // below-quorum vote means the community is smaller than this
    // phase's alpha, and the paper's model (Fig. 2 step 4) adopts
    // nothing. Falling back here anyway would let a phase resolve
    // communities below its alpha scale — a silent protocol deviation
    // (it broke E10's anytime blindness verdict) and a divergence from
    // the distributed ZeroRadiusStrategy, which has no such fallback.
    bool orphan_fallback = false;
    if (candidates.empty() && !votable->empty() && space_faults_active(space)) {
      candidates = top_vectors(*votable, params.ft_orphan_candidates);
      orphan_fallback = true;
    }
    // Community-size record per adoption vote — also a serial drain
    // point for the recorder's staged per-player probe events, keeping
    // staged memory bounded by one recursion node's worth of probes.
    if (auto* rec = space_recorder(space)) rec->note("zr.adopt", kept, candidates.size());
    if (candidates.empty()) {
      // No surviving post at all: adopters keep defaults for this half.
      for (const PlayerId a : adopters) {
        if (!space_is_failed(space, a)) space_note_orphan(space, a);
      }
      return;
    }

    engine::parallel_for(0, adopters.size(), [&](std::size_t i) {
      if (space_is_failed(space, adopters[i])) return;
      if (orphan_fallback) space_note_orphan(space, adopters[i]);
      const std::size_t choice =
          candidates.size() == 1
              ? 0
              : select_zero(space, adopters[i], candidates, std::span(object_ids));
      scatter_row(out[node.player_pos[half][i]], candidates[choice], node.object_pos[1 - half],
                  obj_mask);
    });
  }

  static void scatter_outputs(const Outputs& part, const std::vector<std::uint32_t>& player_pos,
                              const std::vector<std::uint32_t>& obj_pos, const Mask& obj_mask,
                              Outputs& out) {
    for (std::size_t i = 0; i < player_pos.size(); ++i) {
      scatter_row(out[player_pos[i]], part[i], obj_pos, obj_mask);
    }
  }

  /// Mirror an internal node's outputs to the billboard, one channel
  /// resolution and board lock per node (the failed-player skip lives
  /// inside publish_rows). A leaf's outputs are its players' probe
  /// results, which the oracle already holds: it posts nothing and
  /// keeps only its posts' fault bookkeeping. Only packed spaces
  /// publish.
  void publish(const Node& node, const Outputs& out) {
    if constexpr (RowTraits<Space>::packed) {
      const std::string channel = "zr/" + std::to_string(node.tag);
      if (node.leaf()) {
        space.publish_leaf(channel, node.players);
      } else {
        space.publish_rows(channel, node.players, out);
      }
    } else {
      (void)node;
      (void)out;
    }
  }
};

}  // namespace detail

/// Run Zero Radius over `players` and `objects` in `space`.
/// Returns per-player rows aligned with `objects` (row i belongs to
/// players[i]): packed bits::BitVector rows for spaces that declare
/// `Row`, std::vector<Value> otherwise. `rng` carries the shared
/// coins; `n_total` is the system size entering the leaf threshold and
/// is normally players.size() of the top-level call.
template <typename Space>
std::vector<typename detail::RowTraits<Space>::Row> zero_radius(
    Space& space, const std::vector<PlayerId>& players,
    const std::vector<std::uint32_t>& objects, double alpha, const Params& params,
    rng::Rng rng, std::size_t n_total) {
  const ZeroRadiusPlan plan(players, objects, zero_radius_leaf_threshold(n_total, alpha, params),
                            rng);
  detail::ZeroRadiusRun<Space> run{space, alpha, params, plan};
  return run.run(plan.root());
}

}  // namespace tmwia::core
