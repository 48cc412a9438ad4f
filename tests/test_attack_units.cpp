// Proximity-attack unit tests on hand-constructed split views: with
// geometry under full control, the matcher's behaviour is exactly
// predictable — nearest-pairing, capacity limits, loop refusal, completion.
#include "attack/proximity.hpp"
#include "core/split.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace {

using namespace sm;
using core::Fragment;
using core::SplitView;
using core::VPin;
using netlist::CellId;
using netlist::CellLibrary;
using netlist::NetId;
using netlist::Netlist;

VPin vpin(double x, double y, int dx = 0, int dy = 0) {
  VPin v;
  v.pos = {x, y};
  v.grid = {static_cast<int>(x), static_cast<int>(y), 3};
  v.dir_dx = dx;
  v.dir_dy = dy;
  return v;
}

/// Two drivers (nets n1, n2) and two sinks (g1 pin0, g2 pin0); erroneous
/// FEOL wiring is absent — the view alone tells the attacker what's open.
struct Rig {
  CellLibrary lib;
  Netlist nl;
  NetId n1, n2;
  CellId g1, g2;
  place::Placement pl;

  Rig() : nl(lib, "rig") {
    n1 = nl.add_primary_input("a");
    n2 = nl.add_primary_input("b");
    g1 = nl.add_cell("g1", lib.id_of("INV_X1"));
    g2 = nl.add_cell("g2", lib.id_of("INV_X1"));
    // True wiring: a->g1, b->g2 (this is `original` for scoring).
    nl.connect_input(g1, 0, n1);
    nl.connect_input(g2, 0, n2);
    nl.add_primary_output("y1", nl.cell(g1).output);
    nl.add_primary_output("y2", nl.cell(g2).output);
    pl.floorplan.die = {{0, 0}, {100, 100}};
    pl.pos.assign(nl.num_cells(), {50, 50});
  }

  /// View where driver i sits at (xi, y) and sink j at (xj', y).
  SplitView view(double d1x, double d2x, double s1x, double s2x) const {
    SplitView v;
    v.split_layer = 3;
    auto drv = [&](NetId n, double x) {
      Fragment f;
      f.net = n;
      f.has_driver = true;
      f.anchor = {x, 10};
      f.vpins = {vpin(x, 10)};
      return f;
    };
    auto snk = [&](CellId c, NetId feol_net, double x) {
      Fragment f;
      f.net = feol_net;  // the net whose route reaches this sink in FEOL
      f.sinks = {{c, 0}};
      f.anchor = {x, 10};
      f.vpins = {vpin(x, 10)};
      return f;
    };
    v.fragments = {drv(n1, d1x), drv(n2, d2x), snk(g1, n1, s1x),
                   snk(g2, n2, s2x)};
    return v;
  }
};

TEST(AttackUnits, NearestPairingWins) {
  Rig rig;
  // d1 at 10, d2 at 80; s1 at 12 (near d1), s2 at 78 (near d2).
  const auto view = rig.view(10, 80, 12, 78);
  attack::ProximityOptions opts;
  opts.eval_patterns = 64;
  const auto res = attack::proximity_attack(rig.nl, rig.nl, rig.pl, view,
                                            nullptr, opts);
  EXPECT_EQ(res.open_sinks, 2u);
  EXPECT_EQ(res.correct, 2u);  // both sinks matched to their true drivers
  EXPECT_DOUBLE_EQ(res.ccr(), 1.0);
  EXPECT_DOUBLE_EQ(res.rates.oer, 0.0);
}

TEST(AttackUnits, GlobalAssignmentResolvesCompetition) {
  Rig rig;
  // Both sinks closest to d1, but d1 can plausibly take only... without
  // capacity pressure the flow still must give one sink to d2; least total
  // cost assigns the nearer sink to d1.
  const auto view = rig.view(10, 90, 12, 20);
  attack::ProximityOptions opts;
  opts.eval_patterns = 64;
  opts.use_load = true;
  // Drivers are PI pads (5 kOhm): budget 10/5 = 2 fF ~ capacity 1 sink.
  opts.load_budget_ff_per_ks = 10.0;
  const auto res = attack::proximity_attack(rig.nl, rig.nl, rig.pl, view,
                                            nullptr, opts);
  EXPECT_EQ(res.open_sinks, 2u);
  // s1 (at 12) -> d1 correct; s2 (at 20) forced to d2 -> also correct.
  EXPECT_EQ(res.correct, 2u);
}

TEST(AttackUnits, MatchedCountsOnlyTheMainMatching) {
  // Both sinks see only driver 1, which has room for one: the matching
  // connects the nearer sink, and the completion repair hands the other to
  // driver 1 anyway. `matched` counts the first sink only.
  Rig rig;
  const auto view = rig.view(10, 80, 12, 14);
  attack::ProximityOptions opts;
  opts.eval_patterns = 64;
  opts.candidates_per_sink = 1;
  // Drivers are PI pads (5 kOhm): budget 10/5 = 2 fF ~ capacity 1 sink.
  opts.load_budget_ff_per_ks = 10.0;
  const auto res = attack::proximity_attack(rig.nl, rig.nl, rig.pl, view,
                                            nullptr, opts);
  EXPECT_EQ(res.open_sinks, 2u);
  EXPECT_EQ(res.matched, 1u);
  EXPECT_EQ(res.correct, 1u);  // s2 on d1 is wrong
  EXPECT_GT(res.rates.patterns, 0u);  // the repair completed the netlist
}

TEST(AttackUnits, DirectionHintBreaksTies) {
  Rig rig;
  auto view = rig.view(40, 60, 50, 50);  // both sinks equidistant-ish
  // Driver 1's dangling wire points right toward the sinks; driver 2's
  // points away. With direction on, d1 is preferred for the nearer sink.
  view.fragments[0].vpins = {vpin(40, 10, +1, 0)};
  view.fragments[1].vpins = {vpin(60, 10, +1, 0)};  // points away from 50
  attack::ProximityOptions with;
  with.eval_patterns = 64;
  attack::ProximityOptions without = with;
  without.use_direction = false;
  const auto a = attack::proximity_attack(rig.nl, rig.nl, rig.pl, view,
                                          nullptr, with);
  const auto b = attack::proximity_attack(rig.nl, rig.nl, rig.pl, view,
                                          nullptr, without);
  // Both resolve completely; direction must not reduce accuracy.
  EXPECT_GE(a.correct, b.correct);
  EXPECT_EQ(a.open_sinks, 2u);
}

TEST(AttackUnits, LoopAvoidanceRefusesCycle) {
  // Chain: pi -> g1 -> (open) g2 -> y. The only WRONG match for g2's input
  // would be g2's own downstream... construct: g2 input open; candidate
  // drivers are pi's net and g2's own output net. Matching g2.in to
  // g2.out closes a combinational loop and must be refused.
  CellLibrary lib;
  Netlist nl(lib, "loopy");
  const NetId a = nl.add_primary_input("a");
  const CellId g2 = nl.add_cell("g2", lib.id_of("INV_X1"));
  nl.connect_input(g2, 0, a);  // truth: a -> g2
  nl.add_primary_output("y", nl.cell(g2).output);
  place::Placement pl;
  pl.floorplan.die = {{0, 0}, {100, 100}};
  pl.pos.assign(nl.num_cells(), {50, 50});

  SplitView view;
  view.split_layer = 3;
  Fragment far_drv;  // the true driver, but FAR away
  far_drv.net = a;
  far_drv.has_driver = true;
  far_drv.anchor = {95, 95};
  far_drv.vpins = {vpin(95, 95)};
  Fragment self_drv;  // g2's own output, RIGHT next to the sink
  self_drv.net = nl.cell(g2).output;
  self_drv.has_driver = true;
  self_drv.anchor = {11, 10};
  self_drv.vpins = {vpin(11, 10)};
  Fragment sink;
  sink.net = a;
  sink.sinks = {{g2, 0}};
  sink.anchor = {10, 10};
  sink.vpins = {vpin(10, 10)};
  view.fragments = {far_drv, self_drv, sink};

  attack::ProximityOptions opts;
  opts.eval_patterns = 64;
  const auto res = attack::proximity_attack(nl, nl, pl, view, nullptr, opts);
  // The nearest candidate closes a loop; the attack must take the far true
  // driver instead and end with a valid, correct netlist.
  EXPECT_EQ(res.open_sinks, 1u);
  EXPECT_EQ(res.correct, 1u);
  EXPECT_GT(res.rates.patterns, 0u);  // recovered netlist was simulable
}

TEST(AttackUnits, LoadBudgetTracksSinkCapacitance) {
  // Hint (iii) regression: the driver's load budget (fF) must translate into
  // a fanout count via the *measured* open-sink-fragment capacitance, not a
  // hard-coded average. Two runs with identical geometry, differing only in
  // the sink cells' input capacitance: both sinks sit next to driver 1, but
  // the true wiring is a->g1, b->g2.
  //   budget = 50 fF-kOhm / 5 kOhm (pad) = 10 fF.
  //   BUF_X8 sinks (8.0 fF): capacity 1 -> the flow must hand g2 to its
  //     true (distant) driver, recovering both connections.
  //   INV_X1 sinks (1.6 fF): capacity 6 -> driver 1 swallows both sinks and
  //     only g1 is recovered.
  // A capacity indifferent to sink capacitance cannot produce both outcomes.
  auto correct_with_sinks = [](const char* sink_type) {
    CellLibrary lib;
    Netlist nl(lib, "loadrig");
    const NetId a = nl.add_primary_input("a");
    const NetId b = nl.add_primary_input("b");
    const CellId g1 = nl.add_cell("g1", lib.id_of(sink_type));
    const CellId g2 = nl.add_cell("g2", lib.id_of(sink_type));
    nl.connect_input(g1, 0, a);
    nl.connect_input(g2, 0, b);
    nl.add_primary_output("y1", nl.cell(g1).output);
    nl.add_primary_output("y2", nl.cell(g2).output);
    place::Placement pl;
    pl.floorplan.die = {{0, 0}, {100, 100}};
    pl.pos.assign(nl.num_cells(), {50, 50});

    SplitView view;
    view.split_layer = 3;
    auto drv = [&](NetId n, double x) {
      Fragment f;
      f.net = n;
      f.has_driver = true;
      f.anchor = {x, 10};
      f.vpins = {vpin(x, 10)};
      return f;
    };
    auto snk = [&](CellId c, NetId n, double x) {
      Fragment f;
      f.net = n;
      f.sinks = {{c, 0}};
      f.anchor = {x, 10};
      f.vpins = {vpin(x, 10)};
      return f;
    };
    view.fragments = {drv(a, 10), drv(b, 90), snk(g1, a, 12), snk(g2, b, 14)};

    attack::ProximityOptions opts;
    opts.eval_patterns = 64;
    opts.use_load = true;
    opts.load_budget_ff_per_ks = 50.0;
    const auto res =
        attack::proximity_attack(nl, nl, pl, view, nullptr, opts);
    EXPECT_EQ(res.open_sinks, 2u);
    return res.correct;
  };
  EXPECT_EQ(correct_with_sinks("BUF_X8"), 2u);
  EXPECT_EQ(correct_with_sinks("INV_X1"), 1u);
}

/// Randomized many-fragment view for the spatial-index tests:
/// `nd` PI-driven nets (open driver fragments) and `nsk` INV sinks (open
/// sink fragments, true driver = net j % nd), fragments scattered uniformly
/// with 1-3 vpins each (random offsets exercise the index's spread slack,
/// random stub directions the cost lower bound).
struct RandomRig {
  CellLibrary lib;
  Netlist nl;
  place::Placement pl;
  SplitView view;

  RandomRig(std::size_t nd, std::size_t nsk, std::uint64_t seed)
      : nl(lib, "randrig") {
    sm::util::Rng rng(seed);
    std::vector<NetId> nets;
    for (std::size_t i = 0; i < nd; ++i)
      nets.push_back(nl.add_primary_input("a" + std::to_string(i)));
    std::vector<CellId> cells;
    for (std::size_t j = 0; j < nsk; ++j) {
      const CellId c = nl.add_cell("g" + std::to_string(j), lib.id_of("INV_X1"));
      nl.connect_input(c, 0, nets[j % nd]);
      nl.add_primary_output("y" + std::to_string(j), nl.cell(c).output);
      cells.push_back(c);
    }
    pl.floorplan.die = {{0, 0}, {1000, 1000}};
    pl.pos.assign(nl.num_cells(), {500, 500});

    view.split_layer = 3;
    auto fragment = [&](NetId net) {
      Fragment f;
      f.net = net;
      f.anchor = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
      const int nv = static_cast<int>(rng.range(1, 3));
      for (int v = 0; v < nv; ++v) {
        const double x = f.anchor.x + rng.uniform(-20, 20);
        const double y = f.anchor.y + rng.uniform(-20, 20);
        VPin vp = vpin(x, y, static_cast<int>(rng.range(-1, 1)),
                       static_cast<int>(rng.range(-1, 1)));
        f.vpins.push_back(vp);
      }
      return f;
    };
    for (std::size_t i = 0; i < nd; ++i) {
      Fragment f = fragment(nets[i]);
      f.has_driver = true;
      view.fragments.push_back(f);
    }
    for (std::size_t j = 0; j < nsk; ++j) {
      Fragment f = fragment(nets[j % nd]);
      f.sinks = {{cells[j], 0}};
      view.fragments.push_back(f);
    }
  }
};

bool same_result(const attack::ProximityResult& a,
                 const attack::ProximityResult& b) {
  return a.open_sinks == b.open_sinks && a.matched == b.matched &&
         a.correct == b.correct && a.protected_total == b.protected_total &&
         a.protected_correct == b.protected_correct &&
         a.rates.oer == b.rates.oer && a.rates.hd == b.rates.hd &&
         a.rates.patterns == b.rates.patterns;
}

TEST(AttackUnits, SpatialIndexMatchesBruteForce) {
  // The ISSUE-4 contract: indexed candidate generation returns the same
  // (pair_cost, driver) ranking as the all-pairs scan, so the whole attack
  // result — matching and simulated OER/HD — is bit-identical.
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    RandomRig rig(120, 150, seed);
    attack::ProximityOptions opts;
    opts.eval_patterns = 256;
    opts.candidates_per_sink = 8;
    auto run = [&](int threshold) {
      opts.index_min_drivers = threshold;
      return attack::proximity_attack(rig.nl, rig.nl, rig.pl, rig.view,
                                      nullptr, opts);
    };
    const auto brute = run(std::numeric_limits<int>::max());
    const auto indexed = run(0);
    EXPECT_TRUE(same_result(brute, indexed)) << "seed " << seed;
    EXPECT_EQ(brute.open_sinks, 150u);
  }
}

TEST(AttackUnits, SpatialIndexMatchesBruteForceWithDiagonalStubsLowBonus) {
  // Regression for the pruning bound: RandomRig emits diagonal stub
  // directions, whose cosine against the unnormalized dir vector reaches
  // sqrt(2) — a floor derived from cos <= 1 over-prunes once
  // direction_bonus drops. The sound floor is 1 - (1-bonus)*sqrt(2). At
  // 0.1 it is negative: both runs scan brute force, and the pair costs
  // that go negative must still reach the solver, which takes none.
  for (const double bonus : {0.1, 0.3, 0.45, 0.6}) {
    for (const std::uint64_t seed : {5u, 23u, 41u, 77u}) {
      RandomRig rig(120, 150, seed);
      attack::ProximityOptions opts;
      opts.eval_patterns = 256;
      opts.candidates_per_sink = 8;
      opts.direction_bonus = bonus;
      auto run = [&](int threshold) {
        opts.index_min_drivers = threshold;
        return attack::proximity_attack(rig.nl, rig.nl, rig.pl, rig.view,
                                        nullptr, opts);
      };
      EXPECT_TRUE(
          same_result(run(std::numeric_limits<int>::max()), run(0)))
          << "bonus " << bonus << " seed " << seed;
    }
  }
}

TEST(AttackUnits, SpatialIndexMatchesBruteForceWithAllHints) {
  RandomRig rig(100, 100, 7);
  attack::ProximityOptions opts;
  opts.eval_patterns = 256;
  opts.candidates_per_sink = 6;
  opts.use_strength_prior = true;  // exercises the prior term of the bound
  auto run = [&](int threshold) {
    opts.index_min_drivers = threshold;
    return attack::proximity_attack(rig.nl, rig.nl, rig.pl, rig.view, nullptr,
                                    opts);
  };
  EXPECT_TRUE(
      same_result(run(std::numeric_limits<int>::max()), run(0)));
}

TEST(AttackUnits, EmptyViewIsPerfectScore) {
  Rig rig;
  SplitView empty;
  empty.split_layer = 3;
  attack::ProximityOptions opts;
  opts.eval_patterns = 64;
  const auto res = attack::proximity_attack(rig.nl, rig.nl, rig.pl, empty,
                                            nullptr, opts);
  EXPECT_EQ(res.open_sinks, 0u);
  EXPECT_DOUBLE_EQ(res.ccr(), 1.0);  // nothing hidden, everything "known"
  EXPECT_DOUBLE_EQ(res.rates.oer, 0.0);
}

}  // namespace
