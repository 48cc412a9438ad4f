// Attack tests — the paper's central security claims:
//   * the proximity attack succeeds on original layouts (high CCR, low HD),
//   * it fails on layouts protected by the proposed scheme (0% CCR on the
//     randomized connections, OER ~ 100%),
//   * crouting metrics grow for the protected layouts.
#include "attack/crouting.hpp"
#include "attack/proximity.hpp"
#include "core/baselines.hpp"
#include "core/protect.hpp"
#include "sweep/sweep.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace {

using namespace sm;
using core::FlowOptions;
using core::RandomizeOptions;
using netlist::CellLibrary;
using netlist::Netlist;

class AttackTest : public ::testing::Test {
 protected:
  CellLibrary lib{6};
  Netlist bench(const char* name = "c880", std::uint64_t seed = 3) const {
    return workloads::generate(lib, workloads::iscas85_profile(name), seed);
  }
  FlowOptions flow() const {
    // sweep::task_flow's ISCAS recipe, with the default seeds.
    FlowOptions f;
    f.lift_layer = 6;
    f.router.passes = 3;
    f.placer.detailed_passes = 2;
    f.placer.target_utilization = 0.45;
    return f;
  }
  attack::ProximityOptions quick_attack() const {
    attack::ProximityOptions a;
    a.eval_patterns = 20000;
    return a;
  }
};

TEST_F(AttackTest, OriginalLayoutIsHighlyVulnerable) {
  // Paper: ~94% CCR / 7% HD on original ISCAS-85 layouts, averaged over
  // splits M3/M4/M5. Our substrate reproduces the shape: near-perfect
  // recovery at M4/M5 (few, short cut nets), harder at M3.
  const Netlist original = bench();
  const auto layout = core::layout_original(original, flow());
  double ccr_sum = 0, hd_sum = 0;
  for (const int split : {3, 4, 5}) {
    const auto view = core::split_layout(original, layout.placement,
                                         layout.routing, layout.tasks,
                                         layout.num_net_tasks, split);
    const auto res = attack::proximity_attack(original, original,
                                              layout.placement, view, nullptr,
                                              quick_attack());
    ccr_sum += res.ccr();
    hd_sum += res.rates.hd;
  }
  EXPECT_GT(ccr_sum / 3, 0.6) << "proximity attack should succeed on original";
  EXPECT_LT(hd_sum / 3, 0.25);
}

TEST_F(AttackTest, ProtectedLayoutDefeatsAttack) {
  const Netlist original = bench();
  RandomizeOptions r;
  r.seed = 5;
  r.check_patterns = 2048;
  const auto design = core::protect(original, r, flow());
  const auto view = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, 4);
  const auto res =
      attack::proximity_attack(design.erroneous, original,
                               design.layout.placement, view, &design.ledger,
                               quick_attack());
  ASSERT_GT(res.protected_total, 0u);
  // Paper: 0% CCR on the randomized connections.
  EXPECT_LE(res.ccr_protected(), 0.05);
  // Paper: OER ~ 100%, HD ~ 40%.
  EXPECT_GT(res.rates.oer, 0.95);
  EXPECT_GT(res.rates.hd, 0.15);
}

TEST_F(AttackTest, HintsImproveTheAttack) {
  // Disabling the published hints must not make the attack better on the
  // original layout (sanity check that the hints are wired in).
  const Netlist original = bench("c1355", 7);
  const auto layout = core::layout_original(original, flow());
  const auto view = core::split_layout(original, layout.placement,
                                       layout.routing, layout.tasks,
                                       layout.num_net_tasks, 4);
  attack::ProximityOptions with = quick_attack();
  attack::ProximityOptions without = quick_attack();
  without.use_direction = false;
  without.use_load = false;
  without.candidates_per_sink = 2;
  const auto a = attack::proximity_attack(original, original, layout.placement,
                                          view, nullptr, with);
  const auto b = attack::proximity_attack(original, original, layout.placement,
                                          view, nullptr, without);
  EXPECT_GE(a.ccr() + 0.05, b.ccr());
}

TEST_F(AttackTest, RecoveredNetlistIsAcyclicAndComplete) {
  const Netlist original = bench();
  RandomizeOptions r;
  r.seed = 8;
  r.check_patterns = 1024;
  const auto design = core::protect(original, r, flow());
  const auto view = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, 4);
  const auto res =
      attack::proximity_attack(design.erroneous, original,
                               design.layout.placement, view, &design.ledger,
                               quick_attack());
  // compare() ran, meaning the recovered netlist was valid and acyclic.
  EXPECT_GT(res.rates.patterns, 0u);
  EXPECT_EQ(res.open_sinks, [&] {
    std::size_t n = 0;
    for (const auto fi : view.open_sink_fragments())
      n += view.fragments[fi].sinks.size();
    return n;
  }());
}

TEST_F(AttackTest, PinSwapBaselineWeakerThanProposed) {
  const Netlist original = bench("c1355", 2);
  // Pin swapping [3]: few real swaps, no lifting.
  const auto swapped = core::layout_pin_swapped(original, flow(), 6, 4);
  const auto view_swap = core::split_layout(
      swapped.erroneous, swapped.layout.placement, swapped.layout.routing,
      swapped.layout.tasks, swapped.layout.num_net_tasks, 4);
  const auto res_swap = attack::proximity_attack(
      swapped.erroneous, original, swapped.layout.placement, view_swap,
      &swapped.ledger, quick_attack());

  RandomizeOptions r;
  r.seed = 4;
  r.check_patterns = 1024;
  const auto design = core::protect(original, r, flow());
  const auto view_prop = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, 4);
  const auto res_prop = attack::proximity_attack(
      design.erroneous, original, design.layout.placement, view_prop,
      &design.ledger, quick_attack());

  // Overall CCR: pin swapping perturbs only a handful of connections, so the
  // attacker still recovers far more of the cut connections than against the
  // proposed scheme. (HD is NOT the differentiator — the paper's Table 5
  // reports 26-50% HD for [3], comparable to the proposed 40%, because even
  // a few wrong central nets wreck many outputs.)
  EXPECT_GT(res_swap.ccr(), res_prop.ccr() + 0.3);
}

TEST_F(AttackTest, IndexedMatchesBruteOnRealLayout) {
  // The spatial vpin index is an exact pruning of the brute-force scan:
  // on an actual routed layout, the attack with the index forced on must
  // be bit-identical to the all-pairs path on every metric.
  const Netlist original = bench();
  const auto layout = core::layout_original(original, flow());
  const auto view = core::split_layout(original, layout.placement,
                                       layout.routing, layout.tasks,
                                       layout.num_net_tasks, 3);
  attack::ProximityOptions opts = quick_attack();
  opts.index_min_drivers = 0;
  // One vpin per bucket: at the default occupancy c880's few drivers fit in
  // one ring around any sink, and the ring pruning would never decide.
  opts.index_target_per_cell = 1.0;
  const auto indexed = attack::proximity_attack(original, original,
                                                layout.placement, view,
                                                nullptr, opts);
  opts.index_min_drivers = std::numeric_limits<int>::max();
  const auto brute = attack::proximity_attack(original, original,
                                              layout.placement, view,
                                              nullptr, opts);
  EXPECT_GT(indexed.open_sinks, 0u);  // M3 leaves sinks to recover
  EXPECT_EQ(indexed.open_sinks, brute.open_sinks);
  EXPECT_EQ(indexed.matched, brute.matched);
  EXPECT_EQ(indexed.correct, brute.correct);
  EXPECT_EQ(indexed.protected_total, brute.protected_total);
  EXPECT_EQ(indexed.protected_correct, brute.protected_correct);
  EXPECT_EQ(indexed.rates.oer, brute.rates.oer);
  EXPECT_EQ(indexed.rates.hd, brute.rates.hd);
  EXPECT_EQ(indexed.rates.patterns, brute.rates.patterns);
}

// The attack on three real layouts, pinned to literal results. The splits
// at M3 make the matching collide with combinational-loop constraints for
// many repair rounds (c2670: about 20), so the pins hold the round loop,
// not only the first solve. They move only when the layout does.
class AttackPins : public AttackTest {
 protected:
  struct Pin {
    std::size_t open_sinks, matched, correct;
    double oer, hd;
    std::size_t patterns;
  };
  void expect_pinned(const char* name, core::FlowOptions f, const Pin& pin) {
    const Netlist original = bench(name);
    const auto layout = core::layout_original(original, f);
    const auto view = core::split_layout(original, layout.placement,
                                         layout.routing, layout.tasks,
                                         layout.num_net_tasks, 3);
    attack::ProximityOptions opts = quick_attack();
    opts.eval_patterns = 256;  // the matcher is under test, not the sim
    const auto res = attack::proximity_attack(original, original,
                                              layout.placement, view,
                                              nullptr, opts);
    EXPECT_EQ(res.open_sinks, pin.open_sinks);
    EXPECT_EQ(res.matched, pin.matched);
    EXPECT_EQ(res.correct, pin.correct);
    EXPECT_EQ(res.rates.oer, pin.oer);
    EXPECT_EQ(res.rates.hd, pin.hd);
    EXPECT_EQ(res.rates.patterns, pin.patterns);
  }
};

TEST_F(AttackPins, C880) {
  expect_pinned("c880", flow(), {104, 104, 31, 1, 0.46724759615384615, 256});
}

TEST_F(AttackPins, C2670) {
  expect_pinned("c2670", flow(), {384, 383, 41, 1, 0.46163504464285715, 256});
}

TEST_F(AttackPins, C7552) {
  // The bench_micro AttackRig recipe (bench/bench_micro.cpp
  // BM_AttackCandidatesIndexed): c7552, router passes 2, split M3.
  core::FlowOptions f = flow();
  f.router.passes = 2;
  expect_pinned("c7552", f, {848, 841, 116, 1, 0.47837094907407407, 256});
}

TEST_F(AttackTest, LoopsOffAttackPinned) {
  // `sm_flow attack --bench=c1355 --split-layer=3 --no-loops`: the CLI's
  // recipe at seed 1, pinned like AttackPins. Without the loop hint the
  // attack keeps no hypothesis order, and its guesses close combinational
  // loops: the recovered netlist cannot be simulated, so OER and HD read
  // the total-failure 100% and 50% and no pattern runs.
  const auto workload = sweep::workload_of("c1355");
  const core::FlowOptions f = sweep::task_flow("c1355", workload, 1, 0.02);
  const CellLibrary cells{f.lift_layer};
  const Netlist original = workloads::generate(
      cells, sweep::task_spec("c1355", workload, 0.02), 1);
  const auto design = core::protect(original, sweep::task_randomize(1), f);
  const auto view = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, 3);
  attack::ProximityOptions opts;
  opts.use_loops = false;
  const auto res =
      attack::proximity_attack(design.erroneous, design.restored,
                               design.layout.placement, view, &design.ledger,
                               opts);
  EXPECT_EQ(res.open_sinks, 127u);
  EXPECT_EQ(res.matched, 127u);
  EXPECT_EQ(res.correct, 23u);  // CCR 18.1%
  EXPECT_EQ(res.protected_total, 47u);
  EXPECT_EQ(res.protected_correct, 3u);  // CCR-rand 6.4%
  EXPECT_EQ(res.rates.oer, 1.0);
  EXPECT_EQ(res.rates.hd, 0.5);
  EXPECT_EQ(res.rates.patterns, 0u);
}

TEST_F(AttackTest, CRoutingCountsCandidates) {
  const Netlist original = bench();
  const auto layout = core::layout_original(original, flow());
  // Split at M3: c880 originals cross M4 only marginally (seed-dependent,
  // and 0 vpins would make every metric vacuous), while M3 always cuts a
  // healthy handful of nets.
  const auto view = core::split_layout(original, layout.placement,
                                       layout.routing, layout.tasks,
                                       layout.num_net_tasks, 3);
  const auto res = attack::crouting_attack(view);
  EXPECT_FALSE(res.failed);
  EXPECT_EQ(res.num_vpins, view.num_vpins());
  ASSERT_EQ(res.candidate_list_size.size(), 3u);
  // Larger boxes admit more candidates.
  EXPECT_LE(res.candidate_list_size[0], res.candidate_list_size[1]);
  EXPECT_LE(res.candidate_list_size[1], res.candidate_list_size[2]);
  EXPECT_LE(res.match_in_list[0], res.match_in_list[2]);
  EXPECT_GT(res.match_in_list[2], 0.5);  // true partner usually nearby
}

TEST_F(AttackTest, CRoutingEmptyViewFails) {
  core::SplitView empty;
  const auto res = attack::crouting_attack(empty);
  EXPECT_TRUE(res.failed);
  EXPECT_EQ(res.num_vpins, 0u);
}

TEST_F(AttackTest, ProposedIncreasesVpinsOverOriginal) {
  const Netlist original = bench("c1908", 5);
  const auto layout = core::layout_original(original, flow());
  RandomizeOptions r;
  r.seed = 6;
  r.check_patterns = 1024;
  const auto design = core::protect(original, r, flow());
  const auto v_orig = core::split_layout(original, layout.placement,
                                         layout.routing, layout.tasks,
                                         layout.num_net_tasks, 5);
  const auto v_prop = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, 5);
  EXPECT_GT(v_prop.num_vpins(), v_orig.num_vpins());
}

}  // namespace
