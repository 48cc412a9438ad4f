// Unit tests for sm::netlist — library contents, netlist construction and
// mutation invariants, topological utilities, loop detection.
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "netlist/topo.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace {

using namespace sm::netlist;

class NetlistTest : public ::testing::Test {
 protected:
  CellLibrary lib{6};
};

TEST_F(NetlistTest, LibraryHasExpectedCells) {
  EXPECT_NO_THROW(lib.id_of("INV_X1"));
  EXPECT_NO_THROW(lib.id_of("NAND2_X1"));
  EXPECT_NO_THROW(lib.id_of("BUF_X8"));
  EXPECT_NO_THROW(lib.id_of("SM_CORR"));
  EXPECT_NO_THROW(lib.id_of("SM_LIFT"));
  EXPECT_THROW(lib.id_of("NOPE_X1"), std::invalid_argument);
  EXPECT_FALSE(lib.find("NOPE_X1").has_value());
}

TEST_F(NetlistTest, CorrectionCellProperties) {
  const CellType& corr = lib.type(lib.correction_cell());
  EXPECT_EQ(corr.cls, CellClass::Correction);
  EXPECT_EQ(corr.pin_layer, 6);
  EXPECT_DOUBLE_EQ(corr.area_um2, 0.0);  // zero die-area contribution
  // Power/timing borrowed from BUF_X2 (paper Sec. 4).
  const CellType& buf2 = lib.type(lib.id_of("BUF_X2"));
  EXPECT_DOUBLE_EQ(corr.input_cap_ff, buf2.input_cap_ff);
  EXPECT_DOUBLE_EQ(corr.drive_res_kohm, buf2.drive_res_kohm);

  CellLibrary lib8{8};
  EXPECT_EQ(lib8.type(lib8.correction_cell()).pin_layer, 8);
}

TEST_F(NetlistTest, MetalStackShape) {
  const MetalStack& m = lib.metal();
  EXPECT_EQ(m.num_layers(), 10);
  EXPECT_EQ(m.layer(1).name, "M1");
  EXPECT_EQ(m.layer(10).name, "M10");
  EXPECT_EQ(m.layer(1).preferred, Direction::Horizontal);
  EXPECT_EQ(m.layer(2).preferred, Direction::Vertical);
  // Upper layers are coarser and less resistive.
  EXPECT_GT(m.layer(9).pitch_um, m.layer(1).pitch_um);
  EXPECT_LT(m.layer(9).res_ohm_per_um, m.layer(1).res_ohm_per_um);
  EXPECT_THROW(m.layer(0), std::out_of_range);
  EXPECT_THROW(m.layer(11), std::out_of_range);
}

TEST_F(NetlistTest, BufferStrengthLookup) {
  EXPECT_EQ(lib.type(lib.buffer(8)).name, "BUF_X8");
  EXPECT_THROW(lib.buffer(3), std::invalid_argument);
}

// Build: y = NAND(a, b); z = INV(y)
Netlist make_small(const CellLibrary& lib) {
  Netlist nl(lib, "small");
  const NetId a = nl.add_primary_input("a");
  const NetId b = nl.add_primary_input("b");
  const CellId g1 = nl.add_cell("g1", lib.id_of("NAND2_X1"));
  nl.connect_input(g1, 0, a);
  nl.connect_input(g1, 1, b);
  const CellId g2 = nl.add_cell("g2", lib.id_of("INV_X1"));
  nl.connect_input(g2, 0, nl.cell(g1).output);
  nl.add_primary_output("z", nl.cell(g2).output);
  return nl;
}

TEST_F(NetlistTest, ConstructionInvariants) {
  const Netlist nl = make_small(lib);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.num_gates(), 2u);
  const CellId g1 = nl.find_cell("g1");
  ASSERT_NE(g1, kInvalidCell);
  EXPECT_EQ(nl.net(nl.cell(g1).output).sinks.size(), 1u);
}

TEST_F(NetlistTest, ReconnectSinkMovesFanout) {
  Netlist nl = make_small(lib);
  const CellId g2 = nl.find_cell("g2");
  const CellId g1 = nl.find_cell("g1");
  const NetId a = nl.primary_input_net(0);
  const NetId g1_out = nl.cell(g1).output;

  nl.reconnect_sink(g2, 0, a);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_TRUE(nl.net(g1_out).sinks.empty());
  // Net `a` now feeds both g1 and g2.
  EXPECT_EQ(nl.net(a).sinks.size(), 2u);
}

TEST_F(NetlistTest, ValidateCatchesUnconnectedPin) {
  Netlist nl(lib, "bad");
  const NetId a = nl.add_primary_input("a");
  const CellId g = nl.add_cell("g", lib.id_of("NAND2_X1"));
  nl.connect_input(g, 0, a);  // pin 1 left open
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST_F(NetlistTest, TopologicalOrderRespectsDependencies) {
  const Netlist nl = make_small(lib);
  const auto order = topological_order(nl);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(order->size(), nl.num_cells());
  std::vector<std::size_t> pos(nl.num_cells());
  for (std::size_t i = 0; i < order->size(); ++i) pos[(*order)[i]] = i;
  const CellId g1 = nl.find_cell("g1"), g2 = nl.find_cell("g2");
  EXPECT_LT(pos[g1], pos[g2]);
}

TEST_F(NetlistTest, LevelizeDepths) {
  const Netlist nl = make_small(lib);
  const auto level = levelize(nl);
  // Sources (PIs/ports) are level 0; a gate fed only by PIs is level 0 too
  // (no combinational predecessor), its fanout gate is level 1.
  const CellId g1 = nl.find_cell("g1"), g2 = nl.find_cell("g2");
  EXPECT_EQ(level[g1], 0);
  EXPECT_EQ(level[g2], 1);
}

/// The netlist's own driver -> sink-cell edges in a DynamicTopoOrder.
DynamicTopoOrder order_of(const Netlist& nl) {
  DynamicTopoOrder order(nl);
  for (NetId n = 0; n < nl.num_nets(); ++n)
    for (const Sink& s : nl.net(n).sinks)
      order.add_edge(nl.net(n).driver, s.cell);
  return order;
}

TEST_F(NetlistTest, LoopDetection) {
  Netlist nl = make_small(lib);
  const CellId g1 = nl.find_cell("g1");
  const CellId g2 = nl.find_cell("g2");
  DynamicTopoOrder order = order_of(nl);
  // Feeding g2's output back into g1 closes a combinational loop.
  EXPECT_TRUE(order.would_loop(g2, g1));
  EXPECT_THROW(order.add_edge(g2, g1), std::logic_error);
  // Feeding a PI forward never loops.
  EXPECT_FALSE(order.would_loop(nl.net(nl.primary_input_net(0)).driver, g2));
  // Self-loop counts.
  EXPECT_TRUE(order.would_loop(g1, g1));
  EXPECT_THROW(order.add_edge(g1, g1), std::logic_error);

  // Actually closing the loop makes the netlist cyclic.
  nl.reconnect_sink(g1, 1, nl.cell(g2).output);
  EXPECT_FALSE(is_acyclic(nl));
  EXPECT_THROW(levelize(nl), std::logic_error);
  EXPECT_THROW(DynamicTopoOrder{nl}, std::logic_error);
}

TEST_F(NetlistTest, DffBreaksCombinationalLoops) {
  Netlist nl(lib, "seq");
  const NetId a = nl.add_primary_input("a");
  const CellId ff = nl.add_cell("ff", lib.dff());
  const CellId g = nl.add_cell("g", lib.id_of("AND2_X1"));
  nl.connect_input(g, 0, a);
  nl.connect_input(g, 1, nl.cell(ff).output);
  nl.connect_input(ff, 0, nl.cell(g).output);  // g -> ff -> g: sequential loop
  nl.add_primary_output("z", nl.cell(g).output);
  nl.validate();
  EXPECT_TRUE(is_acyclic(nl));  // DFF breaks the cycle
  DynamicTopoOrder order = order_of(nl);
  EXPECT_FALSE(order.would_loop(ff, g));
  EXPECT_NO_THROW(order.add_edge(ff, g));
}

/// The full forward-cone search the dynamic order replaced: is `from`
/// combinational and reachable from `to` over edges out of combinational
/// cells? The reference for DynamicTopoOrderMatchesFullSearch.
bool full_search_would_loop(const Netlist& nl,
                            const std::vector<std::pair<CellId, CellId>>& edges,
                            CellId from, CellId to) {
  if (!nl.is_combinational(from)) return false;
  if (from == to) return true;
  std::vector<std::vector<CellId>> adj(nl.num_cells());
  for (const auto& [u, v] : edges) adj[u].push_back(v);
  std::vector<bool> seen(nl.num_cells(), false);
  std::vector<CellId> stack{to};
  seen[to] = true;
  while (!stack.empty()) {
    const CellId cur = stack.back();
    stack.pop_back();
    if (!nl.is_combinational(cur)) continue;
    for (const CellId nxt : adj[cur]) {
      if (nxt == from) return true;
      if (!seen[nxt]) {
        seen[nxt] = true;
        stack.push_back(nxt);
      }
    }
  }
  return false;
}

/// A random acyclic netlist of ports, DFFs and gates. A gate reads PIs, DFF
/// outputs and earlier gates, a pin at a time, so one net often feeds two
/// pins of a cell (duplicate edges); a DFF reads any gate.
Netlist random_netlist(const CellLibrary& lib, sm::util::Rng& rng) {
  Netlist nl(lib, "random");
  std::vector<NetId> sources;
  for (int i = 0; i < 3; ++i)
    sources.push_back(nl.add_primary_input("pi" + std::to_string(i)));
  std::vector<CellId> ffs;
  for (int i = 0; i < 3; ++i) {
    ffs.push_back(nl.add_cell("ff" + std::to_string(i), lib.dff()));
    sources.push_back(nl.cell(ffs.back()).output);
  }
  const CellTypeId types[] = {lib.id_of("INV_X1"), lib.id_of("NAND2_X1"),
                              lib.id_of("AND2_X1")};
  std::vector<CellId> gates;
  for (int i = 0; i < 24; ++i) {
    const CellTypeId t = types[rng.below(3)];
    const CellId g = nl.add_cell("g" + std::to_string(i), t);
    for (int pin = 0; pin < lib.type(t).num_inputs; ++pin)
      nl.connect_input(g, pin, sources[rng.below(sources.size())]);
    sources.push_back(nl.cell(g).output);
    gates.push_back(g);
  }
  for (const CellId ff : ffs)
    nl.connect_input(ff, 0, nl.cell(gates[rng.below(gates.size())]).output);
  for (int i = 0; i < 3; ++i)
    nl.add_primary_output(
        "po" + std::to_string(i),
        nl.cell(gates[gates.size() - 1 - static_cast<std::size_t>(i)]).output);
  nl.validate();
  return nl;
}

TEST(DynamicTopoOrder, MatchesFullSearchUnderRandomEdits) {
  // Random add/remove sequences over random netlists with DFFs, ports and
  // duplicate edges. Every would_loop answer must equal the full search,
  // an add that closes a cycle must throw and change nothing, and after
  // every step each edge out of a combinational cell must climb the order.
  CellLibrary lib{6};
  sm::util::Rng rng(0x70b0);
  std::size_t reorders = 0, loops = 0, removals = 0;
  for (int graph = 0; graph < 60; ++graph) {
    const Netlist nl = random_netlist(lib, rng);
    std::vector<std::pair<CellId, CellId>> edges;
    for (NetId n = 0; n < nl.num_nets(); ++n)
      for (const Sink& s : nl.net(n).sinks)
        edges.push_back({nl.net(n).driver, s.cell});
    DynamicTopoOrder order = order_of(nl);
    const auto cells = static_cast<std::uint64_t>(nl.num_cells());
    for (int step = 0; step < 300; ++step) {
      if (!edges.empty() && rng.below(3) == 0) {
        const auto i = static_cast<std::size_t>(rng.below(edges.size()));
        order.remove_edge(edges[i].first, edges[i].second);
        edges.erase(edges.begin() + static_cast<std::ptrdiff_t>(i));
        ++removals;
      } else {
        // A quarter of the adds repeat an existing edge: a duplicate.
        const auto [from, to] =
            !edges.empty() && rng.below(4) == 0
                ? edges[static_cast<std::size_t>(rng.below(edges.size()))]
                : std::pair<CellId, CellId>{
                      static_cast<CellId>(rng.below(cells)),
                      static_cast<CellId>(rng.below(cells))};
        const bool loop = full_search_would_loop(nl, edges, from, to);
        ASSERT_EQ(order.would_loop(from, to), loop)
            << "graph " << graph << " step " << step;
        if (loop) {
          ++loops;
          EXPECT_THROW(order.add_edge(from, to), std::logic_error);
        } else {
          if (nl.is_combinational(from) &&
              order.position(to) < order.position(from))
            ++reorders;
          order.add_edge(from, to);
          edges.push_back({from, to});
        }
      }
      for (const auto& [u, v] : edges) {
        if (nl.is_combinational(u)) {
          ASSERT_LT(order.position(u), order.position(v))
              << "graph " << graph << " step " << step;
        }
      }
      for (int q = 0; q < 8; ++q) {
        const auto from = static_cast<CellId>(rng.below(cells));
        const auto to = static_cast<CellId>(rng.below(cells));
        ASSERT_EQ(order.would_loop(from, to),
                  full_search_would_loop(nl, edges, from, to))
            << "graph " << graph << " step " << step;
      }
    }
  }
  // The sequences exercise every path: reorders, refused adds, removals.
  EXPECT_GT(reorders, 1000u);
  EXPECT_GT(loops, 1000u);
  EXPECT_GT(removals, 4000u);
}

TEST(DynamicTopoOrder, RemovingAnAbsentEdgeThrows) {
  CellLibrary lib{6};
  const Netlist nl = make_small(lib);
  DynamicTopoOrder order = order_of(nl);
  const CellId g1 = nl.find_cell("g1"), g2 = nl.find_cell("g2");
  EXPECT_THROW(order.remove_edge(g2, g1), std::logic_error);
  order.remove_edge(g1, g2);
  EXPECT_THROW(order.remove_edge(g1, g2), std::logic_error);
  // With g1 -> g2 gone, the reverse edge is legal and reorders the two.
  EXPECT_FALSE(order.would_loop(g2, g1));
  order.add_edge(g2, g1);
  EXPECT_LT(order.position(g2), order.position(g1));
}

TEST_F(NetlistTest, CloneIsIndependent) {
  Netlist nl = make_small(lib);
  Netlist copy = nl.clone();
  const CellId g2 = copy.find_cell("g2");
  copy.reconnect_sink(g2, 0, copy.primary_input_net(0));
  // Original unaffected.
  const CellId g1 = nl.find_cell("g1");
  EXPECT_EQ(nl.net(nl.cell(g1).output).sinks.size(), 1u);
}

TEST(FnArity, MatchesFunctions) {
  EXPECT_EQ(fn_arity(LogicFn::Inv, 1), 1);
  EXPECT_EQ(fn_arity(LogicFn::Mux2, 3), 3);
  EXPECT_EQ(fn_arity(LogicFn::Nand, 4), 4);
  EXPECT_EQ(fn_arity(LogicFn::Const1, 0), 0);
}

}  // namespace
