// Ad placement — the paper's own motivating scenario (Section 1):
//
//   "Probing takes place each time the advertiser provides a user with
//    an ad for some product: if the user clicks on this ad, the matrix
//    entry is set to 1 [...] The task is to reconstruct, for each user,
//    his preference vector (e.g., so that the advertiser can learn what
//    type does the user belong to)."
//
// Users belong to hidden interest segments (sports / cooking / gaming /
// travel), each with individual quirks, plus a slice of erratic users.
// Every ad impression is one probe; the advertiser wants each user's
// full click-propensity vector with as few wasted impressions as
// possible, and does not know the segment sizes or their diversity.
//
// Run: ./build/examples/ad_placement [--users=400] [--products=512]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "tmwia/core/tmwia.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"

int main(int argc, char** argv) {
  using namespace tmwia;
  const io::Args args(argc, argv);
  const auto users = static_cast<std::size_t>(args.get_u64("users", 400));
  const auto products = static_cast<std::size_t>(args.get_u64("products", 512));
  const auto seed = args.get_u64("seed", 7);

  const std::vector<std::string> segment_names{"sports", "cooking", "gaming", "travel"};

  // Four interest segments of ~22% each (radius: individual quirks),
  // 12% erratic users with arbitrary click behaviour.
  rng::Rng gen(seed);
  auto world = matrix::planted_communities(
      users, products,
      {{0.22, 3}, {0.22, 5}, {0.22, 2}, {0.22, 8}}, gen);

  std::printf("ad world: %zu users x %zu products, 4 hidden segments + %zu erratic users\n",
              users, products, world.outsiders().size());

  billboard::ProbeOracle impressions(world.matrix);
  billboard::Billboard board;

  // The advertiser knows neither the segment diameters (taste
  // diversity) nor which user is in which segment; it assumes segments
  // hold at least ~20% of users and lets the unknown-D driver do the
  // rest.
  const auto result = core::find_preferences_unknown_d(
      impressions, &board, /*alpha=*/0.2, core::Params::practical(), rng::Rng(seed + 1));

  io::Table table("per-segment reconstruction (click-propensity vectors)",
                  {{"segment"}, {"users"}, {"diameter D"}, {"worst_err"}, {"stretch", 2},
                   {"avg impressions/user", 1}});
  for (std::size_t s = 0; s < world.communities.size(); ++s) {
    const auto& seg = world.communities[s];
    std::uint64_t imp = 0;
    for (auto u : seg) imp += impressions.invocations(u);
    table.add_row({segment_names[s], static_cast<long long>(seg.size()),
                   static_cast<long long>(world.matrix.subset_diameter(seg)),
                   static_cast<long long>(world.matrix.discrepancy(result.outputs, seg)),
                   world.matrix.stretch(result.outputs, seg),
                   static_cast<double>(imp) / static_cast<double>(seg.size())});
  }
  table.print(std::cout);

  // What the advertiser actually wanted: segment identification. Match
  // each user's reconstructed vector against the segment centroids.
  std::size_t correct = 0, total = 0;
  for (std::size_t s = 0; s < world.communities.size(); ++s) {
    for (auto u : world.communities[s]) {
      ++total;
      if (bits::kernels::argmin_dist(world.centers, result.outputs[u]).index == s) {
        ++correct;
      }
    }
  }
  std::printf("\nsegment identification from reconstructed vectors: %zu/%zu users "
              "(%.1f%%)\n",
              correct, total, 100.0 * static_cast<double>(correct) /
                                  static_cast<double>(total));
  std::printf("showing every user every ad would cost %zu impressions each; the "
              "billboard run used %llu rounds\n",
              products, static_cast<unsigned long long>(result.rounds));
  return correct * 10 >= total * 9 ? 0 : 1;  // >= 90% segment accuracy expected
}
