// BitSpace: the primitive object space — values are the 0/1 grades of
// the hidden preference matrix, probed through ProbeOracle. Internal
// Zero Radius nodes mirror their outputs onto the shared Billboard;
// leaves, whose outputs are their probe results, post nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tmwia/billboard/billboard.hpp"
#include "tmwia/billboard/probe_oracle.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/zero_radius.hpp"

namespace tmwia::core {

/// Adapter satisfying the Zero Radius Space concept over primitive
/// objects.
class BitSpace {
 public:
  using Value = std::uint8_t;     // 0/1 grade
  using Row = bits::BitVector;    // packed rows: Zero Radius runs word-parallel

  /// `channel_prefix` namespaces the billboard channels of this run so
  /// that nested and concurrent Zero Radius executions do not collide:
  /// Small Radius names each part's run under the prefix its caller
  /// gives it, and Large Radius gives each group a prefix of its own.
  BitSpace(billboard::ProbeOracle& oracle, billboard::Billboard* board = nullptr,
           std::string channel_prefix = "zr")
      : oracle_(&oracle), board_(board), prefix_(std::move(channel_prefix)) {}

  Value probe(PlayerId p, std::uint32_t object) {
    return oracle_->probe_resilient(p, object) ? Value{1} : Value{0};
  }

  /// Batched leaf probe: fill the low objects.size() bits of `out` with
  /// p's probes of `objects`, in order. Equivalent to probe() per
  /// object (same cost ledgers, reads and recorder events) but
  /// amortizes the oracle's per-call bookkeeping.
  void probe_row(PlayerId p, std::span<const std::uint32_t> objects, bits::BitVector& out) {
    oracle_->probe_block(p, objects, out);
  }

  /// Mirror a Zero Radius node's outputs to the billboard: players[i]
  /// posts rows[i] on `channel`, in index order. Without a fault
  /// injector the channel name is resolved and the board lock taken
  /// once for the node. With one, a failed player posts nothing and any
  /// other post may be lost (lose_post).
  void publish_rows(std::string_view channel, std::span<const PlayerId> players,
                    std::span<const bits::BitVector> rows) {
    if (oracle_->fault_injector() == nullptr) {
      if (board_ == nullptr) return;
      board_->post_many(prefix_ + "/" + std::string(channel), players, rows);
      return;
    }
    const std::uint64_t tag = post_tag(channel);
    for (std::size_t i = 0; i < players.size(); ++i) {
      if (lose_post(players[i], tag) || board_ == nullptr) continue;
      board_->post(prefix_ + "/" + std::string(channel), players[i], rows[i]);
    }
  }

  /// A Zero Radius leaf's publication. Its rows are its players' probe
  /// results, which the oracle already holds (§1.1 posts every probe
  /// result), so none reaches the board; each post is still lost or
  /// kept, and counted, exactly as publish_rows() would.
  void publish_leaf(std::string_view channel, std::span<const PlayerId> players) {
    if (oracle_->fault_injector() == nullptr) return;
    const std::uint64_t tag = post_tag(channel);
    for (const PlayerId p : players) (void)lose_post(p, tag);
  }

  // Degradation hooks of the Zero Radius Space concept (all no-ops
  // without an attached fault injector).
  [[nodiscard]] bool is_failed(PlayerId p) const {
    auto* inj = oracle_->fault_injector();
    return inj != nullptr && inj->is_failed(p);
  }
  [[nodiscard]] bool post_lost(PlayerId p, std::string_view channel) const {
    auto* inj = oracle_->fault_injector();
    return inj != nullptr && inj->post_lost(p, post_tag(channel));
  }
  /// Orphan adoption (a fault-recovery deviation from the paper's
  /// vote) is only licensed when faults are actually being injected.
  [[nodiscard]] bool faults_active() const { return oracle_->fault_injector() != nullptr; }
  void note_orphan(PlayerId p) {
    if (auto* inj = oracle_->fault_injector(); inj != nullptr) inj->note_orphan(p);
  }

  /// The oracle's flight recorder (Zero Radius notes its adopt votes).
  [[nodiscard]] obs::FlightRecorder* recorder() const { return oracle_->recorder(); }

  /// Mark players as Byzantine: from now on, whatever they *publish*
  /// into a vote (Zero Radius step 4) is replaced by the projection of
  /// `forged` onto the vote's object set — the coordinated fake-
  /// candidate attack (all liars push the same vector, the strongest
  /// way to cross the popularity threshold). Their probe results and
  /// own outputs are untouched: in the model, probe results posted on
  /// the billboard are ground truth; only derived claims can lie.
  void set_byzantine(std::vector<PlayerId> liars, bits::BitVector forged) {
    byzantine_ = std::move(liars);
    std::sort(byzantine_.begin(), byzantine_.end());
    forged_ = std::move(forged);
  }

  /// Whether corrupt_posts would currently rewrite anything — lets the
  /// vote path skip copying the posts when nobody lies.
  [[nodiscard]] bool corrupts_posts() const { return !byzantine_.empty(); }

  /// Zero Radius voting hook (see zero_radius.hpp).
  void corrupt_posts(const std::vector<PlayerId>& posters,
                     std::span<const std::uint32_t> object_ids,
                     std::vector<bits::BitVector>& posts) {
    if (byzantine_.empty()) return;
    // tmwia-lint: allow(per-bit-loop) indexed gather onto the vote's object ids; runs only for byzantine liars
    for (std::size_t i = 0; i < posters.size(); ++i) {
      if (!std::binary_search(byzantine_.begin(), byzantine_.end(), posters[i])) continue;
      // tmwia-lint: allow(per-bit-loop) see above: projection of the forged vector is a per-object gather
      for (std::size_t j = 0; j < object_ids.size(); ++j) {
        posts[i].set(j, forged_.get(object_ids[j]));
      }
    }
  }

 private:
  /// One post identity per (prefix, channel, player): the same tag is
  /// derived by the publishing path and the vote paths.
  [[nodiscard]] std::uint64_t post_tag(std::string_view channel) const {
    return faults::FaultInjector::channel_tag(prefix_ + "/" + std::string(channel));
  }

  /// Under a fault injector: does p's post with channel tag `tag` miss
  /// the board? A failed player posts nothing; anyone else's post may be
  /// lost (post_lost, the draw the vote paths make), and a lost post is
  /// counted.
  bool lose_post(PlayerId p, std::uint64_t tag) {
    auto* inj = oracle_->fault_injector();
    if (inj->is_failed(p)) return true;
    if (!inj->post_lost(p, tag)) return false;
    inj->note_post_dropped();
    return true;
  }

  billboard::ProbeOracle* oracle_;
  billboard::Billboard* board_;
  std::string prefix_;
  std::vector<PlayerId> byzantine_;
  bits::BitVector forged_;
};

/// Zero Radius over primitive objects, returning packed BitVectors
/// aligned with `objects` (row i belongs to players[i]).
std::vector<bits::BitVector> zero_radius_bits(billboard::ProbeOracle& oracle,
                                              billboard::Billboard* board,
                                              const std::vector<PlayerId>& players,
                                              const std::vector<std::uint32_t>& objects,
                                              double alpha, const Params& params,
                                              rng::Rng rng, std::string channel_prefix = "zr");

}  // namespace tmwia::core
