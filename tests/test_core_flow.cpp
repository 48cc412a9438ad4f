// End-to-end protection flow tests: correction-cell planning, lifting,
// split views, restoration equivalence, and PPA accounting.
#include "core/baselines.hpp"
#include "core/correction.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <set>

namespace {

using namespace sm::core;
using sm::netlist::CellLibrary;
using sm::netlist::NetId;
using sm::netlist::Netlist;

class CoreFlowTest : public ::testing::Test {
 protected:
  CellLibrary lib{6};
  Netlist bench(const char* name = "c432", std::uint64_t seed = 3) const {
    return sm::workloads::generate(lib, sm::workloads::iscas85_profile(name),
                                   seed);
  }
  FlowOptions flow() const {
    FlowOptions f;
    f.lift_layer = 6;
    f.router.passes = 2;
    f.placer.detailed_passes = 1;
    return f;
  }
  RandomizeOptions rand_opts() const {
    RandomizeOptions r;
    r.seed = 5;
    r.check_patterns = 2048;
    return r;
  }
};

TEST_F(CoreFlowTest, CorrectionPlanPairsPerEntry) {
  const Netlist original = bench();
  auto rr = randomize(original, rand_opts());
  sm::place::Placer placer;
  const auto pl = placer.place(rr.erroneous);
  const auto plan = plan_corrections(rr.erroneous, rr.ledger, pl, 6);
  EXPECT_EQ(plan.cells.size(), rr.ledger.entries.size() * 2);
  EXPECT_EQ(plan.wires.size(), rr.ledger.entries.size() * 2);
  for (std::size_t e = 0; e < rr.ledger.entries.size(); ++e) {
    EXPECT_EQ(plan.cells[2 * e].tapped_net, rr.ledger.entries[e].net_a);
    EXPECT_EQ(plan.cells[2 * e + 1].tapped_net, rr.ledger.entries[e].net_b);
    // Pair wires connect A<->B of the same entry.
    EXPECT_EQ(plan.wires[2 * e].from_cell, 2 * e);
    EXPECT_EQ(plan.wires[2 * e].to_cell, 2 * e + 1);
    EXPECT_EQ(plan.wires[2 * e + 1].from_cell, 2 * e + 1);
  }
  // All cells inside the die.
  for (const auto& c : plan.cells)
    EXPECT_TRUE(pl.floorplan.die.inflated(1e-6).contains(c.pos));
}

TEST_F(CoreFlowTest, CorrectionLegalizationSeparatesCells) {
  CorrectionPlan plan;
  plan.pin_layer = 6;
  for (int i = 0; i < 25; ++i) {
    CorrectionCell c;
    c.pos = {10.0, 10.0};  // all stacked on one spot
    plan.cells.push_back(c);
  }
  legalize_corrections(plan, sm::util::Rect{{0, 0}, {50, 50}}, 1.4);
  std::set<std::pair<long, long>> sites;
  for (const auto& c : plan.cells) {
    const auto key = std::make_pair(std::lround(c.pos.x * 10),
                                    std::lround(c.pos.y * 10));
    EXPECT_TRUE(sites.insert(key).second) << "two cells share a site";
  }
}

TEST_F(CoreFlowTest, ProtectProducesConsistentDesign) {
  const Netlist original = bench();
  const auto design = protect(original, rand_opts(), flow());
  EXPECT_GE(design.oer, 0.9);
  EXPECT_TRUE(design.restored_ok);
  EXPECT_FALSE(design.ledger.entries.empty());
  // Task list: one task per net with sinks, then 2 wires per entry.
  EXPECT_EQ(design.layout.tasks.size() - design.layout.num_net_tasks,
            design.ledger.entries.size() * 2);
  EXPECT_EQ(design.layout.routing.routes.size(), design.layout.tasks.size());
  EXPECT_EQ(design.layout.routing.stats.failed_nets, 0u);
}

TEST_F(CoreFlowTest, ProtectedNetsAreLifted) {
  const Netlist original = bench();
  const auto design = protect(original, rand_opts(), flow());
  const auto protected_nets = design.ledger.protected_nets();
  const std::set<NetId> prot(protected_nets.begin(), protected_nets.end());
  for (std::size_t ti = 0; ti < design.layout.num_net_tasks; ++ti) {
    const auto& task = design.layout.tasks[ti];
    if (prot.count(task.net)) {
      EXPECT_EQ(task.min_layer, 6);
      // Protected nets route through their correction cells: at least one
      // extra terminal beyond driver+sinks.
      EXPECT_GT(task.terminals.size(),
                1 + design.erroneous.net(task.net).sinks.size());
    } else {
      EXPECT_EQ(task.min_layer, 1);
    }
  }
}

TEST_F(CoreFlowTest, BeolWiresStayAboveLiftLayer) {
  const Netlist original = bench();
  const auto design = protect(original, rand_opts(), flow());
  for (std::size_t ti = design.layout.num_net_tasks;
       ti < design.layout.tasks.size(); ++ti) {
    const auto& r = design.layout.routing.routes[ti];
    EXPECT_TRUE(r.success);
    for (const auto& seg : r.segments)
      EXPECT_GE(std::min(seg.a.layer, seg.b.layer), 6);
  }
}

TEST_F(CoreFlowTest, SplitViewFindsFragmentsAndVpins) {
  const Netlist original = bench();
  const auto layout = layout_original(original, flow());
  const auto view = split_layout(original, layout.placement, layout.routing,
                                 layout.tasks, layout.num_net_tasks, 3);
  EXPECT_GT(view.num_vpins(), 0u);
  EXPECT_FALSE(view.open_driver_fragments().empty());
  EXPECT_FALSE(view.open_sink_fragments().empty());
  // Every fragment belongs to a real net and has content.
  for (const auto& f : view.fragments) {
    EXPECT_LT(f.net, original.num_nets());
    EXPECT_TRUE(f.has_driver || !f.sinks.empty() || !f.vpins.empty());
  }
}

TEST_F(CoreFlowTest, SplitAtHigherLayerCutsFewerNets) {
  const Netlist original = bench();
  const auto layout = layout_original(original, flow());
  const auto low = split_layout(original, layout.placement, layout.routing,
                                layout.tasks, layout.num_net_tasks, 2);
  const auto high = split_layout(original, layout.placement, layout.routing,
                                 layout.tasks, layout.num_net_tasks, 6);
  EXPECT_GE(low.open_sink_fragments().size(),
            high.open_sink_fragments().size());
  EXPECT_GE(low.num_vpins(), high.num_vpins());
}

TEST_F(CoreFlowTest, ProtectedSplitExposesEveryProtectedNet) {
  const Netlist original = bench();
  const auto design = protect(original, rand_opts(), flow());
  const auto view =
      split_layout(design.erroneous, design.layout.placement,
                   design.layout.routing, design.layout.tasks,
                   design.layout.num_net_tasks, 4);
  // Lifted nets (min layer 6, split at 4) must appear as open fragments —
  // except the rare net whose terminals all share one gcell (its via stacks
  // merge into the driver's FEOL fragment, which the attacker indeed sees
  // as connected).
  std::set<NetId> open_nets;
  for (const auto fi : view.open_sink_fragments())
    open_nets.insert(view.fragments[fi].net);
  std::size_t total = 0, open = 0;
  for (const NetId n : design.ledger.protected_nets()) {
    if (design.erroneous.net(n).sinks.empty()) continue;
    ++total;
    if (open_nets.count(n)) ++open;
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(static_cast<double>(open) / static_cast<double>(total), 0.7);
}

TEST_F(CoreFlowTest, NaiveLiftKeepsFunctionAndLifts) {
  const Netlist original = bench();
  const auto design = protect(original, rand_opts(), flow());
  const auto nets = design.ledger.protected_nets();
  const auto naive = layout_naive_lift(original, nets, flow());
  EXPECT_EQ(naive.plan.cells.size(), nets.size());
  EXPECT_EQ(naive.layout.routing.stats.failed_nets, 0u);
  // Lifting adds vias in every boundary below the lift layer vs original.
  const auto orig = layout_original(original, flow());
  for (int l = 1; l < 6; ++l)
    EXPECT_GT(naive.layout.routing.stats.vias[static_cast<std::size_t>(l)],
              orig.routing.stats.vias[static_cast<std::size_t>(l)]);
}

TEST_F(CoreFlowTest, PpaOverheadIsFiniteAndOrdered) {
  const Netlist original = bench();
  const auto orig = layout_original(original, flow());
  const auto design = protect(original, rand_opts(), flow());
  EXPECT_GT(orig.ppa.critical_path_ps, 0.0);
  EXPECT_GT(orig.ppa.total_power_uw(), 0.0);
  // Protection costs something but stays bounded. The unbudgeted run on a
  // tiny die lifts a large net fraction into the few M6+ tracks, so the
  // power multiple is large here; the paper's budget loop (exercised by
  // BudgetLoopRespectsBudget) is what bounds production overheads.
  EXPECT_GE(design.layout.ppa.total_power_uw(), orig.ppa.total_power_uw());
  EXPECT_LT(design.layout.ppa.total_power_uw(), orig.ppa.total_power_uw() * 12);
  EXPECT_GE(design.layout.ppa.critical_path_ps, orig.ppa.critical_path_ps);
  // Zero die-area overhead (correction cells have no device footprint).
  EXPECT_DOUBLE_EQ(design.layout.ppa.die_area_um2, orig.ppa.die_area_um2);
}

TEST_F(CoreFlowTest, BudgetLoopRespectsBudget) {
  const Netlist original = bench("c432", 9);
  const auto orig = layout_original(original, flow());
  RandomizeOptions r = rand_opts();
  r.max_swaps = 8;
  const auto design =
      protect_with_budget(original, r, flow(), orig.ppa, 25.0, 3);
  EXPECT_TRUE(design.restored_ok);
  EXPECT_GE(design.ledger.entries.size(), 1u);
}

TEST_F(CoreFlowTest, BaselinesProduceValidLayouts) {
  const Netlist original = bench();
  const auto placed = place_design(original, flow());
  const auto perturbed = layout_placement_perturbed(
      original, flow(), placed, PerturbStrategy::GType1, 0.15, 3);
  EXPECT_EQ(perturbed.routing.stats.failed_nets, 0u);

  const auto swapped = layout_pin_swapped(original, flow(), 10, 3);
  EXPECT_EQ(swapped.ledger.entries.size(), 10u);
  EXPECT_EQ(swapped.layout.routing.stats.failed_nets, 0u);

  const auto rperturb =
      layout_routing_perturbed(original, flow(), placed, 0.1, 5, 3);
  EXPECT_EQ(rperturb.routing.stats.failed_nets, 0u);

  const auto blocked =
      layout_routing_blockage(original, flow(), placed, 3, 8.0, 4, 3);
  EXPECT_EQ(blocked.routing.stats.failed_nets, 0u);
}

TEST_F(CoreFlowTest, BlockagesPushWiringUp) {
  const Netlist original = bench("c1908", 4);
  const auto placed = place_design(original, flow());
  const auto orig = route_design(original, placed, flow());
  const auto blocked =
      layout_routing_blockage(original, flow(), placed, 6, 10.0, 4, 3);
  double orig_high = 0, blocked_high = 0;
  for (int l = 5; l <= 10; ++l) {
    orig_high += orig.routing.stats.wire_um[static_cast<std::size_t>(l)];
    blocked_high += blocked.routing.stats.wire_um[static_cast<std::size_t>(l)];
  }
  EXPECT_GT(blocked_high, orig_high);
}

}  // namespace
