// Partition-tree tests: cutline balance on skewed net distributions,
// disjointness/containment of the spatial assignment, crossing nets at
// branch nodes, and the router-level guarantee the tree exists for —
// routed layouts byte-identical across every (jobs, partition_depth)
// combination, with the rounds escape hatch keeping its own identity.
#include "place/placer.hpp"
#include "route/partition_tree.hpp"
#include "route/router.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace {

using namespace sm::route;
using sm::netlist::CellLibrary;
using sm::util::GridRect;

PartitionNet net_at(std::size_t task, std::int32_t x0, std::int32_t y0,
                    std::int32_t x1, std::int32_t y1,
                    std::uint64_t work = 1) {
  return {task, GridRect{x0, y0, x1, y1}, work};
}

/// Sum of net work in the subtree rooted at `node`.
std::uint64_t subtree_work(const PartitionTree& t, int node) {
  if (node < 0) return 0;
  const auto& n = t.nodes()[static_cast<std::size_t>(node)];
  std::uint64_t w = 0;
  for (const auto idx : n.nets) w += t.nets()[idx].work;
  return w + subtree_work(t, n.left) + subtree_work(t, n.right);
}

bool is_ancestor(const PartitionTree& t, int anc, int node) {
  for (int p = node; p >= 0;
       p = t.nodes()[static_cast<std::size_t>(p)].parent)
    if (p == anc) return true;
  return false;
}

TEST(PartitionTreeTest, EmptyAndTinyInputs) {
  EXPECT_TRUE(PartitionTree().empty());
  EXPECT_TRUE(PartitionTree(GridRect{0, 0, 63, 63}, {}).empty());
  // Below min_nets the root stays a leaf holding everything, input order
  // preserved.
  std::vector<PartitionNet> nets;
  for (std::size_t i = 0; i < 5; ++i)
    nets.push_back(net_at(i, 2 * static_cast<std::int32_t>(i), 0,
                          2 * static_cast<std::int32_t>(i) + 1, 1));
  const PartitionTree t(GridRect{0, 0, 63, 63}, nets);
  ASSERT_EQ(t.nodes().size(), 1u);
  EXPECT_TRUE(t.nodes()[0].is_leaf());
  EXPECT_EQ(t.depth(), 0);
  ASSERT_EQ(t.nodes()[0].nets.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(t.nodes()[0].nets[i], i);
}

// The cutline must track the work median, not the geometric center: with
// the work piled into the left quarter of the region, a center cut would
// put ~80% of it on one side, while the prefix-sum scan should land inside
// the dense cluster and split the work nearly evenly.
TEST(PartitionTreeTest, CutlineBalancesSkewedWork) {
  std::vector<PartitionNet> nets;
  // 80 tight nets packed into x ∈ [0, 31]...
  for (std::size_t i = 0; i < 80; ++i) {
    const auto x = static_cast<std::int32_t>((2 * i) % 30);
    const auto y = static_cast<std::int32_t>((3 * i) % 120);
    nets.push_back(net_at(i, x, y, x + 1, y + 1));
  }
  // ...and 20 spread over the remaining three quarters.
  for (std::size_t i = 0; i < 20; ++i) {
    const auto x = static_cast<std::int32_t>(64 + (3 * i) % 60);
    const auto y = static_cast<std::int32_t>((7 * i) % 120);
    nets.push_back(net_at(80 + i, x, y, x + 1, y + 1));
  }
  const PartitionTree t(GridRect{0, 0, 127, 127}, nets);
  const auto& root = t.nodes()[0];
  ASSERT_FALSE(root.is_leaf());
  const std::uint64_t total = 100;
  const std::uint64_t left = subtree_work(t, root.left);
  const std::uint64_t right = subtree_work(t, root.right);
  // Nearly even split; a geometric-center cut would score ~80/20.
  EXPECT_GE(left, total * 35 / 100);
  EXPECT_GE(right, total * 35 / 100);
  // The cut itself sits inside the dense cluster, far left of center.
  const auto& lregion = t.nodes()[static_cast<std::size_t>(root.left)].region;
  EXPECT_LT(lregion.x1, 64);
}

// Spatial soundness: every net's window is contained in its node's region,
// children nest inside parents, siblings are disjoint — and therefore nets
// of incomparable nodes (the ones the router routes concurrently) never
// overlap. This is the whole determinism argument in one invariant.
TEST(PartitionTreeTest, AssignmentsAreContainedAndSiblingsDisjoint) {
  std::vector<PartitionNet> nets;
  // Deterministic pseudo-random windows of mixed size.
  std::uint64_t s = 12345;
  auto next = [&s](std::uint64_t mod) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::int32_t>((s >> 33) % mod);
  };
  for (std::size_t i = 0; i < 200; ++i) {
    const std::int32_t x = next(120), y = next(120);
    const std::int32_t w = next(24), h = next(24);
    nets.push_back(net_at(i, x, y, std::min(x + w, 127),
                          std::min(y + h, 127), 1 + (i % 3)));
  }
  const PartitionTree t(GridRect{0, 0, 127, 127}, nets);
  ASSERT_GE(t.depth(), 2) << "test wants a non-trivial tree";

  std::size_t assigned = 0;
  for (const auto& node : t.nodes()) {
    for (const auto idx : node.nets) {
      EXPECT_TRUE(node.region.contains(t.nets()[idx].window))
          << "net window escapes its node region";
      ++assigned;
    }
    if (node.left >= 0) {
      const auto& l = t.nodes()[static_cast<std::size_t>(node.left)];
      EXPECT_TRUE(node.region.contains(l.region));
      EXPECT_EQ(l.parent, static_cast<int>(&node - t.nodes().data()));
    }
    if (node.right >= 0) {
      const auto& r = t.nodes()[static_cast<std::size_t>(node.right)];
      EXPECT_TRUE(node.region.contains(r.region));
    }
    if (node.left >= 0 && node.right >= 0) {
      EXPECT_FALSE(
          t.nodes()[static_cast<std::size_t>(node.left)].region.overlaps(
              t.nodes()[static_cast<std::size_t>(node.right)].region));
    }
  }
  EXPECT_EQ(assigned, nets.size()) << "every net lands at exactly one node";

  // Windows of nets in incomparable nodes never overlap.
  std::vector<int> owner(nets.size(), -1);
  for (std::size_t n = 0; n < t.nodes().size(); ++n)
    for (const auto idx : t.nodes()[n].nets) owner[idx] = static_cast<int>(n);
  for (std::size_t a = 0; a < nets.size(); ++a)
    for (std::size_t b = a + 1; b < nets.size(); ++b) {
      if (is_ancestor(t, owner[a], owner[b]) ||
          is_ancestor(t, owner[b], owner[a]))
        continue;
      EXPECT_FALSE(t.nets()[a].window.overlaps(t.nets()[b].window))
          << "nets " << a << " and " << b
          << " overlap across incomparable nodes";
    }
}

// A net straddling every useful cutline must stay at the branch node, not
// get pushed into either child.
TEST(PartitionTreeTest, CrossingNetsStayAtBranch) {
  std::vector<PartitionNet> nets;
  for (std::size_t i = 0; i < 40; ++i) {
    const auto y = static_cast<std::int32_t>((3 * i) % 120);
    nets.push_back(net_at(i, 2, y, 12, y + 2));          // left cluster
    nets.push_back(net_at(40 + i, 110, y, 124, y + 2));  // right cluster
  }
  // Spans the full region, so it crosses every cut on either axis.
  nets.push_back(net_at(80, 0, 0, 127, 127));
  const PartitionTree t(GridRect{0, 0, 127, 127}, nets);
  const auto& root = t.nodes()[0];
  ASSERT_FALSE(root.is_leaf());
  bool at_root = false;
  for (const auto idx : root.nets) at_root |= (t.nets()[idx].task == 80);
  EXPECT_TRUE(at_root) << "full-span net must stay at the root";
  // The two clusters end up in different subtrees.
  const std::uint64_t left = subtree_work(t, root.left);
  const std::uint64_t right = subtree_work(t, root.right);
  EXPECT_GE(left, 40u);
  EXPECT_GE(right, 40u);
}

/// Byte-level equality of two routing results (mirrors test_route.cpp).
void expect_identical_routing(const RoutingResult& a, const RoutingResult& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    const auto& ra = a.routes[i];
    const auto& rb = b.routes[i];
    EXPECT_EQ(ra.success, rb.success);
    ASSERT_EQ(ra.segments.size(), rb.segments.size()) << "net index " << i;
    for (std::size_t s = 0; s < ra.segments.size(); ++s) {
      EXPECT_EQ(ra.segments[s].a, rb.segments[s].a) << "net " << i;
      EXPECT_EQ(ra.segments[s].b, rb.segments[s].b) << "net " << i;
    }
  }
  EXPECT_EQ(a.stats.total_vias(), b.stats.total_vias());
  EXPECT_DOUBLE_EQ(a.stats.total_wire_um(), b.stats.total_wire_um());
  EXPECT_EQ(a.stats.failed_nets, b.stats.failed_nets);
  EXPECT_EQ(a.stats.overflowed_gcells, b.stats.overflowed_gcells);
  EXPECT_EQ(a.stats.searches, b.stats.searches);
  EXPECT_EQ(a.stats.heap_pops, b.stats.heap_pops);
  EXPECT_EQ(a.stats.heap_pushes, b.stats.heap_pushes);
}

// The tentpole guarantee: with the tree scheduler, routed layouts are
// byte-identical across every jobs × partition_depth combination — jobs
// and the fan-out depth are pure scheduling knobs.
TEST(PartitionRouteTest, JobsAndDepthDoNotChangeRoutes) {
  CellLibrary lib;
  const auto nl = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c880"), 5);
  sm::place::Placer placer;
  const auto pl = placer.place(nl);
  const auto tasks = make_tasks(nl, pl);

  RouterOptions opts;
  opts.gcell_um = 1.4;  // fine grid so negotiation actually has work to do
  opts.passes = 4;
  opts.partition = RoutePartition::Tree;
  opts.jobs = 1;
  opts.partition_depth = -1;
  const auto baseline =
      Router(opts).route(tasks, pl.floorplan.die, lib.metal());
  EXPECT_EQ(baseline.stats.failed_nets, 0u);

  for (const std::size_t jobs : {1u, 2u, 8u}) {
    for (const int depth : {0, 1, 3, -1}) {
      if (jobs == 1 && depth == -1) continue;  // that is the baseline
      opts.jobs = jobs;
      opts.partition_depth = depth;
      const auto other =
          Router(opts).route(tasks, pl.floorplan.die, lib.metal());
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " depth=" + std::to_string(depth));
      expect_identical_routing(baseline, other);
    }
  }
}

// Congested corridor under the tree scheduler: rip-up rounds active, live
// congestion commits, still jobs-identical.
TEST(PartitionRouteTest, CongestedRoutesIdenticalAcrossJobs) {
  std::vector<RouteTask> tasks;
  for (int i = 0; i < 48; ++i) {
    RouteTask t;
    t.net = static_cast<sm::netlist::NetId>(i);
    const double y = 14.0 + (i % 12) * 2.8;
    t.terminals = {{{2, y}, 1}, {{54, y}, 1}};
    tasks.push_back(std::move(t));
  }
  const sm::netlist::MetalStack stack;
  const sm::util::Rect die{{0, 0}, {56, 56}};
  RouterOptions opts;
  opts.passes = 6;
  opts.partition = RoutePartition::Tree;
  opts.jobs = 1;
  const auto serial = Router(opts).route(tasks, die, stack);
  EXPECT_EQ(serial.stats.failed_nets, 0u);
  opts.jobs = 8;
  opts.partition_depth = 2;
  const auto parallel = Router(opts).route(tasks, die, stack);
  expect_identical_routing(serial, parallel);
}

// The PR-5 escape hatch still works and keeps its own jobs-invariance.
// (Tree and rounds may produce different — individually deterministic —
// layouts; this only pins the rounds scheduler's contract.)
TEST(PartitionRouteTest, RoundsEscapeHatchStillJobsIdentical) {
  CellLibrary lib;
  const auto nl = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c432"), 3);
  sm::place::Placer placer;
  const auto pl = placer.place(nl);
  const auto tasks = make_tasks(nl, pl);

  RouterOptions opts;
  opts.passes = 3;
  opts.partition = RoutePartition::Rounds;
  opts.jobs = 1;
  const auto serial = Router(opts).route(tasks, pl.floorplan.die, lib.metal());
  opts.jobs = 8;
  const auto sharded =
      Router(opts).route(tasks, pl.floorplan.die, lib.metal());
  expect_identical_routing(serial, sharded);
}

TEST(PartitionRouteTest, PartitionFlagParsing) {
  EXPECT_EQ(route_partition_from_string("tree"), RoutePartition::Tree);
  EXPECT_EQ(route_partition_from_string("rounds"), RoutePartition::Rounds);
  EXPECT_THROW(route_partition_from_string("spiral"), std::invalid_argument);
  EXPECT_STREQ(to_string(RoutePartition::Tree), "tree");
  EXPECT_STREQ(to_string(RoutePartition::Rounds), "rounds");
}

}  // namespace
