// Movie night — classic collaborative filtering with the interactive
// twist: watching a movie IS the probe. A streaming platform's users
// split into taste clusters (each person still has individual taste),
// and everyone wants to know their whole like/dislike vector over the
// catalogue while watching as few movies as possible.
//
// This example contrasts three strategies for the same users:
//   * binge (solo probing)  — watch everything: exact, m nights;
//   * tmwia                 — the paper's collaborative algorithm;
//   * random + majority     — watch a random sample, trust the crowd.
//
// Run: ./build/examples/movie_night [--users=512] [--movies=512]
#include <cstdio>
#include <iostream>

#include "tmwia/baselines/baselines.hpp"
#include "tmwia/core/tmwia.hpp"
#include "tmwia/io/args.hpp"
#include "tmwia/io/table.hpp"

int main(int argc, char** argv) {
  using namespace tmwia;
  const io::Args args(argc, argv);
  const auto users = static_cast<std::size_t>(args.get_u64("users", 512));
  const auto movies = static_cast<std::size_t>(args.get_u64("movies", 512));
  const auto seed = args.get_u64("seed", 11);

  // Two taste clusters (say, thrillers vs musicals people) with real
  // internal disagreement, and 20% of users with one-of-a-kind taste.
  rng::Rng gen(seed);
  auto world = matrix::planted_communities(users, movies, {{0.4, 4}, {0.4, 6}}, gen);
  std::printf("catalogue of %zu movies, %zu users in 2 taste clusters, %zu loners\n\n",
              movies, users, world.outsiders().size());

  io::Table table("movie night: nights spent vs taste accuracy",
                  {{"strategy"}, {"nights (rounds)"}, {"cluster1 worst_err"},
                   {"cluster2 worst_err"}, {"loner mean_err", 1}});

  auto loner_mean = [&](const std::vector<bits::BitVector>& outputs) {
    const auto loners = world.outsiders();
    if (loners.empty()) return 0.0;
    std::size_t t = 0;
    for (auto p : loners) t += outputs[p].hamming(world.matrix.row(p));
    return static_cast<double>(t) / static_cast<double>(loners.size());
  };
  auto add_row = [&](const std::string& name, std::uint64_t rounds,
                     const std::vector<bits::BitVector>& outputs) {
    table.add_row({name, static_cast<long long>(rounds),
                   static_cast<long long>(
                       world.matrix.discrepancy(outputs, world.communities[0])),
                   static_cast<long long>(
                       world.matrix.discrepancy(outputs, world.communities[1])),
                   loner_mean(outputs)});
  };

  {
    billboard::ProbeOracle oracle(world.matrix);
    const auto res = baselines::solo_probing(oracle);
    add_row("binge everything", res.rounds, res.outputs);
  }
  {
    Session session(world.matrix);
    const auto res = session.alpha(0.4).seed(seed + 1).run();
    add_row("tmwia (collaborative)", res.rounds, res.outputs);
  }
  {
    billboard::ProbeOracle oracle(world.matrix);
    const auto res = baselines::global_majority(oracle, movies / 8, rng::Rng(seed + 2));
    add_row("random sample + crowd majority", res.rounds, res.outputs);
  }
  table.print(std::cout);

  std::printf(
      "\ntakeaways: the crowd-majority strategy is cheap but ignores that the two\n"
      "clusters disagree (its one answer fails both); tmwia recovers each cluster\n"
      "member to within a few movies of their true taste. Loners are inherently on\n"
      "their own — the paper's guarantee (Theorem 1.1) is relative to how esoteric\n"
      "your taste is: stretch = error / community diameter.\n");
  return 0;
}
