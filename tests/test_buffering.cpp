// Repeater insertion (drive-strength fixing) tests.
#include "core/protect.hpp"
#include "layout_pins.hpp"
#include "place/buffering.hpp"
#include "place/placer.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

namespace {

using namespace sm;
using netlist::CellId;
using netlist::CellLibrary;
using netlist::NetId;
using netlist::Netlist;

class BufferingTest : public ::testing::Test {
 protected:
  CellLibrary lib;
};

TEST_F(BufferingTest, PreservesFunction) {
  auto nl = workloads::generate(lib, workloads::iscas85_profile("c880"), 1);
  const auto golden = nl.clone();
  place::Placer placer;
  auto pl = placer.place(nl);
  const auto res = place::insert_buffers(nl, pl);
  EXPECT_GT(res.buffers_inserted, 0u);
  EXPECT_EQ(pl.pos.size(), nl.num_cells());
  EXPECT_TRUE(sim::equivalent(golden, nl, 4096, 7));
}

TEST_F(BufferingTest, StrengthTracksDistance) {
  // Hand-built: one driver, two nets — short and long.
  Netlist nl(lib, "b");
  const NetId a = nl.add_primary_input("a");
  const CellId g1 = nl.add_cell("near", lib.id_of("INV_X1"));
  nl.connect_input(g1, 0, a);
  const CellId g2 = nl.add_cell("far", lib.id_of("INV_X1"));
  nl.connect_input(g2, 0, nl.cell(g1).output);
  nl.add_primary_output("y", nl.cell(g2).output);

  place::Placement pl;
  pl.floorplan.die = {{0, 0}, {300, 300}};
  pl.floorplan.num_rows = 200;
  pl.pos = {{0, 1}, {2, 1}, {250, 1}, {252, 1}};  // pi, near, far, po

  place::BufferingOptions opts;
  opts.hpwl_threshold_um = 25;
  const auto res = place::insert_buffers(nl, pl, opts);
  // Only the long net (near -> far, ~248 um) gets a repeater, strength 8.
  ASSERT_EQ(res.buffers_inserted, 1u);
  EXPECT_EQ(nl.type_of(res.buffers[0]).name, "BUF_X8");
  // The repeater is electrically between `near` and `far`.
  const NetId mid = nl.cell(res.buffers[0]).output;
  EXPECT_EQ(nl.cell(g2).inputs[0], mid);
  EXPECT_EQ(nl.cell(res.buffers[0]).inputs[0], nl.cell(g1).output);
  nl.validate();
}

TEST_F(BufferingTest, SkipListRespected) {
  auto nl = workloads::generate(lib, workloads::iscas85_profile("c432"), 2);
  place::Placer placer;
  auto pl = placer.place(nl);
  // Skip everything: nothing may change.
  std::vector<NetId> skip;
  for (NetId n = 0; n < nl.num_nets(); ++n) skip.push_back(n);
  const std::size_t cells_before = nl.num_cells();
  const auto res = place::insert_buffers(nl, pl, {}, skip);
  EXPECT_EQ(res.buffers_inserted, 0u);
  EXPECT_EQ(nl.num_cells(), cells_before);
}

TEST_F(BufferingTest, FlowIntegrationKeepsEquivalence) {
  const auto nl = workloads::generate(lib, workloads::iscas85_profile("c880"), 3);
  core::FlowOptions flow;
  flow.placer.target_utilization = 0.45;
  flow.buffering = true;
  flow.buffering_opts.hpwl_threshold_um = 15.0;
  core::RandomizeOptions r;
  r.seed = 3;
  r.check_patterns = 1024;
  const auto design = core::protect(nl, r, flow);
  // Restoration must still hold with repeaters in the erroneous netlist.
  EXPECT_TRUE(design.restored_ok);
  EXPECT_GT(design.erroneous.num_cells(), nl.num_cells());  // repeaters added
  EXPECT_EQ(design.layout.routing.stats.failed_nets, 0u);
  // Protected nets were skipped: their connectivity is exactly the ledger's.
  for (const auto& e : design.ledger.entries) {
    EXPECT_EQ(design.erroneous.cell(e.sink_a.cell).inputs.at(
                  static_cast<std::size_t>(e.sink_a.pin)),
              e.net_b);
  }
  // The buffered layout, pinned to literal results (tests/layout_pins.hpp).
  sm::testing::expect_layout_pinned(
      design.layout, {{1360, 554, 271, 74, 74, 122, 8, 2, 0},
                      145, 0, 529, 13638345291686258633ULL,
                      11162816421238379864ULL});
}

TEST_F(BufferingTest, BufferedOriginalLayoutRoutes) {
  const auto nl = workloads::generate(lib, workloads::iscas85_profile("c1355"), 4);
  core::FlowOptions flow;
  flow.placer.target_utilization = 0.45;
  flow.buffering = true;
  const auto layout = core::layout_original(nl, flow);
  EXPECT_EQ(layout.routing.stats.failed_nets, 0u);
  EXPECT_GT(layout.ppa.total_power_uw(), 0.0);
}

}  // namespace
