// Min-cost max-flow kernel tests (the matching engine of the network-flow
// proximity attack): cold-solve correctness, the warm remove_edge/resolve
// rounds, the calls the solver rejects, and the randomized cold==warm
// equality harness the attack's loop repair rests on.
#include "attack/mcmf.hpp"

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace {

using sm::attack::MinCostFlow;

TEST(Mcmf, SimplePath) {
  MinCostFlow f(3);
  const int e0 = f.add_edge(0, 1, 2, 1.0);
  const int e1 = f.add_edge(1, 2, 2, 1.0);
  const auto [flow, cost] = f.solve(0, 2, 5);
  EXPECT_EQ(flow, 2);
  EXPECT_DOUBLE_EQ(cost, 4.0);
  EXPECT_EQ(f.flow_on(e0), 2);
  EXPECT_EQ(f.flow_on(e1), 2);
}

TEST(Mcmf, PrefersCheaperPath) {
  // 0 -> 1 -> 3 (cost 2) and 0 -> 2 -> 3 (cost 10); one unit should take the
  // cheap route.
  MinCostFlow f(4);
  const int cheap1 = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 3, 1, 1.0);
  const int rich1 = f.add_edge(0, 2, 1, 5.0);
  f.add_edge(2, 3, 1, 5.0);
  const auto [flow, cost] = f.solve(0, 3, 1);
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(cheap1), 1);
  EXPECT_EQ(f.flow_on(rich1), 0);
}

TEST(Mcmf, OptimalAssignmentBeatsGreedy) {
  // Assignment where greedy nearest-first is suboptimal:
  //   sinks {A, B}, drivers {X, Y}; costs A-X=1, A-Y=2, B-X=1.5, B-Y=100.
  // Greedy takes A-X (1) then B-Y (100) = 101; optimal is A-Y + B-X = 3.5.
  MinCostFlow f(6);  // 0=s, 1=A, 2=B, 3=X, 4=Y, 5=t
  f.add_edge(0, 1, 1, 0);
  f.add_edge(0, 2, 1, 0);
  const int ax = f.add_edge(1, 3, 1, 1.0);
  const int ay = f.add_edge(1, 4, 1, 2.0);
  const int bx = f.add_edge(2, 3, 1, 1.5);
  const int by = f.add_edge(2, 4, 1, 100.0);
  f.add_edge(3, 5, 1, 0);
  f.add_edge(4, 5, 1, 0);
  const auto [flow, cost] = f.solve(0, 5, 2);
  EXPECT_EQ(flow, 2);
  EXPECT_DOUBLE_EQ(cost, 3.5);
  EXPECT_EQ(f.flow_on(ay), 1);
  EXPECT_EQ(f.flow_on(bx), 1);
  EXPECT_EQ(f.flow_on(ax), 0);
  EXPECT_EQ(f.flow_on(by), 0);
}

TEST(Mcmf, RespectsCapacities) {
  // One driver with capacity 2 must not absorb 3 sinks.
  MinCostFlow f(6);  // 0=s, 1..3=sinks, 4=driver, 5=t
  for (int i = 1; i <= 3; ++i) {
    f.add_edge(0, i, 1, 0);
    f.add_edge(i, 4, 1, 1.0);
  }
  f.add_edge(4, 5, 2, 0);
  const auto [flow, cost] = f.solve(0, 5, 3);
  EXPECT_EQ(flow, 2);
  EXPECT_DOUBLE_EQ(cost, 2.0);
}

TEST(Mcmf, DisconnectedReturnsPartialFlow) {
  MinCostFlow f(4);
  f.add_edge(0, 1, 1, 1.0);
  // node 2, 3 unreachable
  const auto [flow, cost] = f.solve(0, 3, 1);
  EXPECT_EQ(flow, 0);
  EXPECT_DOUBLE_EQ(cost, 0.0);
}

TEST(Mcmf, NegativePreferenceViaResiduals) {
  // Rerouting: first unit takes the cheap middle edge; the second must
  // reroute around it. Classic flow-cancellation correctness check.
  //   s=0, t=3; edges: 0->1 (2, c1), 1->3 (1, c1), 0->2 (1, c3),
  //   1->2 (1, c0), 2->3 (2, c1).
  MinCostFlow f(4);
  f.add_edge(0, 1, 2, 1.0);
  f.add_edge(1, 3, 1, 1.0);
  f.add_edge(0, 2, 1, 3.0);
  f.add_edge(1, 2, 1, 0.0);
  f.add_edge(2, 3, 2, 1.0);
  const auto [flow, cost] = f.solve(0, 3, 3);
  EXPECT_EQ(flow, 3);
  // min cost: unit1 0-1-3 (2), unit2 0-1-2-3 (2), unit3 0-2-3 (4) = 8.
  EXPECT_DOUBLE_EQ(cost, 8.0);
}

TEST(Mcmf, MaxFlowSmallerThanSaturation) {
  // The network could carry 3 units; a budget of 1 must route exactly the
  // single cheapest unit and leave the rest of the capacity untouched.
  MinCostFlow f(5);  // 0=s, 1..2=mid, 4=t
  const int cheap = f.add_edge(0, 1, 2, 1.0);
  f.add_edge(1, 4, 2, 1.0);
  const int rich = f.add_edge(0, 2, 1, 5.0);
  f.add_edge(2, 4, 1, 5.0);
  const auto [flow, cost] = f.solve(0, 4, 1);
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(cheap), 1);
  EXPECT_EQ(f.flow_on(rich), 0);
}

TEST(Mcmf, ZeroCapacityArcsAreInert) {
  // Zero-capacity arcs never carry flow and never divert the search, however
  // cheap they are; removing one after the solve changes nothing.
  MinCostFlow f(4);
  const int dead = f.add_edge(0, 2, 0, 0.0);
  const int a = f.add_edge(0, 1, 1, 1.0);
  const int b = f.add_edge(1, 3, 1, 1.0);
  const int dead2 = f.add_edge(2, 3, 0, 0.0);
  const auto [flow, cost] = f.solve(0, 3, 2);
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 2.0);
  EXPECT_EQ(f.flow_on(dead), 0);
  EXPECT_EQ(f.flow_on(dead2), 0);
  f.remove_edge(dead);
  const auto [flow2, cost2] = f.resolve();
  EXPECT_EQ(flow2, 1);
  EXPECT_DOUBLE_EQ(cost2, 2.0);
  EXPECT_EQ(f.flow_on(dead), 0);
  EXPECT_EQ(f.flow_on(a), 1);
  EXPECT_EQ(f.flow_on(b), 1);
}

TEST(Mcmf, RemoveEdgeReroutesWarm) {
  // Remove the carrying edge after a solve; resolve() must re-route onto
  // the expensive path and report the same totals as a cold solve of the
  // reduced network.
  MinCostFlow f(4);
  const int cheap = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 3, 1, 1.0);
  const int rich = f.add_edge(0, 2, 1, 5.0);
  f.add_edge(2, 3, 1, 5.0);
  f.solve(0, 3, 1);
  ASSERT_EQ(f.flow_on(cheap), 1);
  f.remove_edge(cheap);
  const auto [flow, cost] = f.resolve();
  EXPECT_EQ(flow, 1);
  EXPECT_DOUBLE_EQ(cost, 10.0);
  EXPECT_EQ(f.flow_on(cheap), 0);
  EXPECT_EQ(f.flow_on(rich), 1);
}

TEST(Mcmf, RemoveLastPathDropsFlow) {
  // When no alternative path exists the delivered flow itself must shrink
  // (the repair routes the sink-side deficit back from t).
  MinCostFlow f(3);
  const int e = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 2, 1, 1.0);
  f.solve(0, 2, 1);
  f.remove_edge(e);
  const auto [flow, cost] = f.resolve();
  EXPECT_EQ(flow, 0);
  EXPECT_DOUBLE_EQ(cost, 0.0);
}

TEST(Mcmf, ApiMisuseThrows) {
  // Each call the attack never makes is rejected before it changes state.
  MinCostFlow f(3);
  const int e = f.add_edge(0, 1, 1, 1.0);
  f.add_edge(1, 2, 1, 1.0);
  EXPECT_THROW(f.add_edge(0, 2, 1, -1.0), std::invalid_argument);  // cost < 0
  EXPECT_THROW(f.add_edge(0, 2, -1, 1.0), std::invalid_argument);  // cap < 0
  EXPECT_THROW(f.remove_edge(e), std::logic_error);   // remove before solve
  EXPECT_THROW(f.resolve(), std::logic_error);        // resolve before solve
  EXPECT_THROW(f.solve(0, 0, 1), std::invalid_argument);  // s == t
  EXPECT_THROW(f.solve(0, 1, 1), std::invalid_argument);  // 1 -> 2 leaves t
  EXPECT_EQ(f.solve(0, 2, 1).first, 1);
  EXPECT_THROW(f.solve(0, 2, 1), std::logic_error);          // second solve
  EXPECT_THROW(f.add_edge(0, 2, 1, 1.0), std::logic_error);  // after solve
  EXPECT_EQ(f.flow(), 1);
  EXPECT_EQ(f.flow_on(e), 1);
}

// The cold==warm equality harness: random assignment-shaped networks, one
// solve, then rounds that each remove a few random edges (source, candidate
// and sink arcs alike) and resolve warm. After every round the warm
// solver's state is compared bitwise against a cold solver built directly
// on the network so far, with each removed edge at capacity 0 so edge ids
// line up. Not merely equal cost — every edge's flow must match, which is
// the property the attack's loop-repair rounds rely on. Costs follow the
// warm-start contract's integer-exact domain (as the attack's do): a
// random integer base in the high bits plus 28 random tie-break bits in
// the low bits, so every sum the solver forms is an exact integer below
// 2^53 and the optimum is unique by the isolation lemma — the pinned
// (cost, node, edge-id) tie-break has nothing left to decide.
TEST(Mcmf, RandomizedColdEqualsWarm) {
  constexpr int kTrials = 1200;
  std::size_t perturbations = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    sm::util::Rng rng(0x12345678ULL + static_cast<std::uint64_t>(trial));
    const int ns = static_cast<int>(rng.range(1, 10));
    const int nd = static_cast<int>(rng.range(1, 6));
    const int n = 2 + ns + nd;
    const int S = 0, T = 1;
    const auto sink_node = [&](int si) { return 2 + si; };
    const auto drv_node = [&](int di) { return 2 + ns + di; };

    struct Spec {
      int from, to, cap;
      double cost;
    };
    std::vector<Spec> specs;
    MinCostFlow warm(n);
    const auto add = [&](int from, int to, int cap, double cost) {
      const int id = warm.add_edge(from, to, cap, cost);
      EXPECT_EQ(id, static_cast<int>(specs.size()));
      specs.push_back({from, to, cap, cost});
    };
    const auto rand_cost = [&] {
      // Integer-valued doubles, base * 2^28 + 28 random low bits: exact
      // arithmetic throughout the solver, unique optimum w.p.
      // 1 - edges/2^28 per trial (isolation lemma).
      const double base = static_cast<double>(rng.below(1u << 10));
      const double tie = static_cast<double>(rng.below(1u << 28));
      return base * 268435456.0 + tie;
    };
    for (int si = 0; si < ns; ++si) add(S, sink_node(si), 1, 0.0);
    for (int di = 0; di < nd; ++di)
      add(drv_node(di), T, static_cast<int>(rng.range(0, 3)), 0.0);
    for (int si = 0; si < ns; ++si)
      for (int di = 0; di < nd; ++di) {
        if (rng.uniform() < 0.3) continue;  // sparse candidate lists
        add(sink_node(si), drv_node(di), static_cast<int>(rng.range(0, 2)),
            rand_cost());
      }

    const int budget = static_cast<int>(rng.range(1, ns));
    warm.solve(S, T, budget);

    std::vector<int> live(specs.size());
    for (std::size_t id = 0; id < live.size(); ++id)
      live[id] = static_cast<int>(id);
    const int rounds = static_cast<int>(rng.range(1, 4));
    for (int round = 0; round < rounds && !live.empty(); ++round) {
      const int ops = static_cast<int>(rng.range(1, 4));
      for (int op = 0; op < ops && !live.empty(); ++op, ++perturbations) {
        const auto pick = static_cast<std::size_t>(rng.below(live.size()));
        const int id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        warm.remove_edge(id);
        specs[static_cast<std::size_t>(id)].cap = 0;
      }
      warm.resolve();

      MinCostFlow cold(n);
      for (const auto& s : specs) cold.add_edge(s.from, s.to, s.cap, s.cost);
      const auto [cf, cc] = cold.solve(S, T, budget);
      EXPECT_EQ(cf, warm.flow()) << "trial " << trial << " round " << round;
      EXPECT_EQ(cc, warm.cost()) << "trial " << trial << " round " << round;
      for (std::size_t id = 0; id < specs.size(); ++id)
        ASSERT_EQ(cold.flow_on(static_cast<int>(id)),
                  warm.flow_on(static_cast<int>(id)))
            << "trial " << trial << " round " << round << " edge " << id;
    }
    // Feasibility invariants, independent of the cold reference.
    std::vector<int> net(static_cast<std::size_t>(n), 0);
    for (std::size_t id = 0; id < specs.size(); ++id) {
      const int fl = warm.flow_on(static_cast<int>(id));
      ASSERT_GE(fl, 0);
      ASSERT_LE(fl, specs[id].cap);
      net[static_cast<std::size_t>(specs[id].from)] -= fl;
      net[static_cast<std::size_t>(specs[id].to)] += fl;
    }
    ASSERT_EQ(net[static_cast<std::size_t>(T)], warm.flow());
    ASSERT_EQ(net[static_cast<std::size_t>(S)], -warm.flow());
    ASSERT_LE(warm.flow(), budget);
    for (int v = 2; v < n; ++v) ASSERT_EQ(net[static_cast<std::size_t>(v)], 0);
  }
  // The harness must actually exercise the removal rounds at scale.
  EXPECT_GE(perturbations, 1000u);
}

}  // namespace
