// Min-cost maximum b-matching tests (the matching engine of the network-flow
// proximity attack): hand cases, the calls the solver rejects, and a
// randomized harness that checks every sink's choice, over rounds of
// removed candidates, against a textbook min-cost max-flow kept below.
#include "attack/mcmf.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace {

using sm::attack::Candidate;
using sm::attack::min_cost_matching;

using Match = std::vector<int>;

TEST(MinCostMatching, CheaperCandidateWins) {
  // One sink, two free drivers: the cheaper one.
  EXPECT_EQ(min_cost_matching(1, {1, 1}, {{0, 0, 10}, {0, 1, 2}}),
            (Match{1}));
}

TEST(MinCostMatching, OptimalAssignmentBeatsGreedy) {
  // Sinks {A, B}, drivers {X, Y}: A-X 2, A-Y 4, B-X 3, B-Y 200. Greedy
  // takes A-X and then B-Y for 202; the optimum is A-Y + B-X for 7.
  const std::vector<Candidate> c = {
      {0, 0, 2}, {0, 1, 4}, {1, 0, 3}, {1, 1, 200}};
  EXPECT_EQ(min_cost_matching(2, {1, 1}, c), (Match{1, 2}));
}

TEST(MinCostMatching, RespectsCapacities) {
  // One driver with room for 2 takes the two cheapest of 3 sinks.
  const std::vector<Candidate> c = {{0, 0, 3}, {1, 0, 1}, {2, 0, 2}};
  EXPECT_EQ(min_cost_matching(3, {2}, c), (Match{-1, 1, 2}));
}

TEST(MinCostMatching, MaximumSizeBeforeCost) {
  // Sink 0 could take driver 0 for 1, but then sink 1 has nowhere to go:
  // the larger matching wins even though it costs 101.
  const std::vector<Candidate> c = {{0, 0, 1}, {0, 1, 1}, {1, 0, 100}};
  EXPECT_EQ(min_cost_matching(2, {1, 1}, c), (Match{1, 2}));
}

TEST(MinCostMatching, UnmatchableSinkStaysOpen) {
  // Two slots for three sinks. Sink 1 takes driver 0 (its cheap arc) so
  // sink 2 can take driver 1, and sink 0, whose one arc is to the full
  // driver 0, stays open.
  const std::vector<Candidate> c = {
      {0, 0, 10}, {1, 0, 1}, {1, 1, 2}, {2, 1, 1}};
  EXPECT_EQ(min_cost_matching(3, {1, 1}, c), (Match{-1, 1, 3}));
}

TEST(MinCostMatching, ZeroCapacityDriverIsNeverTaken) {
  const std::vector<Candidate> c = {{0, 0, 0}, {0, 1, 9}, {1, 0, 0}};
  EXPECT_EQ(min_cost_matching(2, {0, 1}, c), (Match{1, -1}));
}

TEST(MinCostMatching, SinkWithoutCandidates) {
  EXPECT_EQ(min_cost_matching(3, {2}, {{1, 0, 4}}), (Match{-1, 0, -1}));
  EXPECT_EQ(min_cost_matching(2, {}, {}), (Match{-1, -1}));
  EXPECT_TRUE(min_cost_matching(0, {1}, {}).empty());
}

TEST(MinCostMatching, ParallelCandidatesAreLegal) {
  // The same sink and driver twice: the cheaper arc carries the match.
  EXPECT_EQ(min_cost_matching(1, {1}, {{0, 0, 7}, {0, 0, 5}, {0, 0, 6}}),
            (Match{1}));
}

TEST(MinCostMatching, ContendedSlotGoesToCheaperSink) {
  // Two sinks contend for one slot. Serving sinks in index order would
  // match sink 0 first and then find no path for sink 1, keeping the more
  // expensive sink; the lazy order serves sink 1's smaller marginal first.
  EXPECT_EQ(min_cost_matching(2, {1}, {{0, 0, 5}, {1, 0, 3}}),
            (Match{-1, 1}));
}

TEST(MinCostMatching, InvalidInputThrows) {
  EXPECT_THROW(min_cost_matching(1, {1}, {{0, 0, -1}}),
               std::invalid_argument);  // negative cost
  EXPECT_THROW(min_cost_matching(1, {-1}, {{0, 0, 1}}),
               std::invalid_argument);  // negative capacity
  EXPECT_THROW(min_cost_matching(1, {1}, {{1, 0, 1}}),
               std::invalid_argument);  // sink past the end
  EXPECT_THROW(min_cost_matching(1, {1}, {{-1, 0, 1}}),
               std::invalid_argument);  // negative sink
  EXPECT_THROW(min_cost_matching(1, {1}, {{0, 1, 1}}),
               std::invalid_argument);  // driver past the end
  EXPECT_THROW(min_cost_matching(1, {1}, {{0, -1, 1}}),
               std::invalid_argument);  // negative driver
}

// Textbook reference: min-cost max-flow by successive shortest paths from a
// super source, one unit per Bellman-Ford search over the whole residual
// graph. No potentials, no lazy order, nothing shared with the solver.
Match reference_matching(std::size_t sinks, const std::vector<int>& capacity,
                         const std::vector<Candidate>& candidates) {
  const int ns = static_cast<int>(sinks);
  const int nd = static_cast<int>(capacity.size());
  const int src = ns + nd, dst = src + 1, n = dst + 1;
  struct Arc {
    int from, to, cap;
    std::int64_t cost;
  };
  std::vector<Arc> arcs;  // arcs[a ^ 1] is the reverse of arcs[a]
  const auto add = [&](int u, int v, int cap, std::int64_t cost) {
    arcs.push_back({u, v, cap, cost});
    arcs.push_back({v, u, 0, -cost});
  };
  for (const Candidate& c : candidates) add(c.sink, ns + c.driver, 1, c.cost);
  for (int s = 0; s < ns; ++s) add(src, s, 1, 0);
  for (int d = 0; d < nd; ++d) add(ns + d, dst, capacity[d], 0);
  constexpr auto kInf = std::numeric_limits<std::int64_t>::max();
  for (;;) {
    std::vector<std::int64_t> dist(n, kInf);
    std::vector<int> via(n, -1);
    dist[src] = 0;
    for (bool changed = true; changed;) {
      changed = false;
      for (int a = 0; a < static_cast<int>(arcs.size()); ++a) {
        const Arc& e = arcs[a];
        if (e.cap == 0 || dist[e.from] == kInf) continue;
        if (dist[e.from] + e.cost < dist[e.to]) {
          dist[e.to] = dist[e.from] + e.cost;
          via[e.to] = a;
          changed = true;
        }
      }
    }
    if (dist[dst] == kInf) break;
    for (int v = dst; v != src; v = arcs[via[v]].from) {
      --arcs[via[v]].cap;
      ++arcs[via[v] ^ 1].cap;
    }
  }
  Match match(sinks, -1);
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (arcs[2 * i + 1].cap > 0)
      match[candidates[i].sink] = static_cast<int>(i);
  return match;
}

// Random attack-shaped networks, each solved in rounds: after every solve
// a few candidates leave the network, as loop repair removes them, and the
// next round solves again from scratch. Costs follow the attack's integer
// form, a base in the high bits and 28 random tie-break bits in the low
// bits, so the optimum is unique by the isolation lemma and any exact
// solver must return the reference's choice for every sink. Half the
// trials draw 3-bit bases, where most alternatives tie on the base and
// only the tie-break bits decide. Parallel candidates and zero-capacity
// drivers appear too.
TEST(MinCostMatching, MatchesReferenceOverRemovalRounds) {
  constexpr int kTrials = 1200;
  std::size_t solves = 0;
  std::size_t with_open_sink = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    sm::util::Rng rng(0x12345678ULL + static_cast<std::uint64_t>(trial));
    const auto ns = static_cast<std::size_t>(rng.range(1, 10));
    const int nd = static_cast<int>(rng.range(1, 6));
    const std::uint64_t bases = trial % 2 == 0 ? 1u << 10 : 1u << 3;
    std::vector<int> capacity(static_cast<std::size_t>(nd));
    for (int& c : capacity) c = static_cast<int>(rng.range(0, 3));
    std::vector<Candidate> live;
    for (std::size_t si = 0; si < ns; ++si)
      for (int di = 0; di < nd; ++di) {
        if (rng.chance(0.3)) continue;  // sparse candidate lists
        const int copies = rng.chance(0.1) ? 2 : 1;
        for (int k = 0; k < copies; ++k) {
          const auto base = static_cast<std::int64_t>(rng.below(bases));
          const auto tie = static_cast<std::int64_t>(rng.below(1u << 28));
          live.push_back({static_cast<int>(si), di, (base << 28) + tie});
        }
      }

    const int rounds = static_cast<int>(rng.range(1, 4));
    for (int round = 0; round < rounds; ++round) {
      const Match got = min_cost_matching(ns, capacity, live);
      ASSERT_EQ(got, reference_matching(ns, capacity, live))
          << "trial " << trial << " round " << round;
      ++solves;
      std::vector<int> load(capacity.size(), 0);
      bool open = false;
      for (std::size_t si = 0; si < ns; ++si) {
        if (got[si] < 0) {
          open = true;
          continue;
        }
        const Candidate& c = live[static_cast<std::size_t>(got[si])];
        ASSERT_EQ(c.sink, static_cast<int>(si));
        ASSERT_LE(++load[static_cast<std::size_t>(c.driver)],
                  capacity[static_cast<std::size_t>(c.driver)]);
      }
      if (open) ++with_open_sink;
      // Loop repair drops candidates the solve chose; drop a mix of those
      // and others, highest index first so the picks stay valid.
      if (live.empty()) break;
      std::vector<std::size_t> drop;
      for (int k = static_cast<int>(rng.range(1, 3)); k > 0; --k) {
        const int chosen = got[static_cast<std::size_t>(rng.below(ns))];
        drop.push_back(chosen >= 0 && rng.chance(0.5)
                           ? static_cast<std::size_t>(chosen)
                           : static_cast<std::size_t>(rng.below(live.size())));
      }
      std::sort(drop.rbegin(), drop.rend());
      drop.erase(std::unique(drop.begin(), drop.end()), drop.end());
      for (const std::size_t i : drop)
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  // The harness must reach the removal rounds and the open sinks at scale.
  EXPECT_GE(solves, 2000u);
  EXPECT_GE(with_open_sink, 1000u);
}

}  // namespace
