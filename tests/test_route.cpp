// Router tests: grid math, connectivity of produced routes, min-layer
// (lifting) constraints, via/wirelength accounting, determinism, congestion
// negotiation, A* optimality against a reference Dijkstra, and the
// full-grid retry of nets that fail inside their clipped window.
#include "place/placer.hpp"
#include "route/router.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <vector>

namespace {

using namespace sm::route;
using sm::netlist::CellLibrary;
using sm::netlist::MetalStack;
using sm::util::GridPoint;
using sm::util::Point;
using sm::util::Rect;

TEST(RouteGridTest, IndexRoundTrip) {
  RouteGrid g(Rect{{0, 0}, {28, 14}}, 2.8, 10);
  EXPECT_EQ(g.nx(), 10);
  EXPECT_EQ(g.ny(), 5);
  for (int l = 1; l <= 10; ++l)
    for (int y = 0; y < g.ny(); ++y)
      for (int x = 0; x < g.nx(); ++x) {
        const GridPoint p{x, y, l};
        EXPECT_EQ(g.at(g.index(p)), p);
      }
}

TEST(RouteGridTest, SnapClampsToBounds) {
  RouteGrid g(Rect{{0, 0}, {28, 14}}, 2.8, 10);
  EXPECT_EQ(g.snap({-5, -5}, 1), (GridPoint{0, 0, 1}));
  EXPECT_EQ(g.snap({100, 100}, 12), (GridPoint{9, 4, 10}));
  const GridPoint mid = g.snap({14, 7}, 3);
  EXPECT_TRUE(g.in_bounds(mid));
}

TEST(RouteGridTest, CapacityTracksPitch) {
  RouteGrid g(Rect{{0, 0}, {28, 28}}, 2.8, 10);
  MetalStack stack;
  // Finer pitch at M3 gives more tracks than coarse M9.
  EXPECT_GT(g.capacity(stack, 3), g.capacity(stack, 9));
  EXPECT_GE(g.capacity(stack, 9), 1);
}

TEST(RouteGridTest, RejectsBadParameters) {
  EXPECT_THROW(RouteGrid(Rect{{0, 0}, {10, 10}}, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(RouteGrid(Rect{{0, 0}, {10, 10}}, 2.8, 1), std::invalid_argument);
}

/// Verify that a NetRoute's segments form one connected component that
/// touches the gcells of all terminals.
void check_connected(const RouteGrid& grid, const NetRoute& r,
                     const std::vector<Terminal>& terminals) {
  ASSERT_TRUE(r.success);
  // Expand segments into node sets.
  std::set<std::size_t> nodes;
  std::map<std::size_t, std::vector<std::size_t>> adj;
  auto link = [&](const GridPoint& a, const GridPoint& b) {
    const auto ia = grid.index(a), ib = grid.index(b);
    nodes.insert(ia);
    nodes.insert(ib);
    adj[ia].push_back(ib);
    adj[ib].push_back(ia);
  };
  for (const auto& seg : r.segments) {
    GridPoint cur = seg.a;
    while (!(cur == seg.b)) {
      GridPoint nxt = cur;
      if (cur.x != seg.b.x) nxt.x += (seg.b.x > cur.x) ? 1 : -1;
      else if (cur.y != seg.b.y) nxt.y += (seg.b.y > cur.y) ? 1 : -1;
      else nxt.layer += (seg.b.layer > cur.layer) ? 1 : -1;
      link(cur, nxt);
      cur = nxt;
    }
    nodes.insert(grid.index(seg.a));
  }
  ASSERT_FALSE(nodes.empty());
  // BFS from the first node.
  std::set<std::size_t> seen{*nodes.begin()};
  std::vector<std::size_t> stack{*nodes.begin()};
  while (!stack.empty()) {
    const auto n = stack.back();
    stack.pop_back();
    for (const auto m : adj[n])
      if (seen.insert(m).second) stack.push_back(m);
  }
  EXPECT_EQ(seen.size(), nodes.size()) << "route is disconnected";
  for (const auto& t : terminals) {
    const GridPoint pin = grid.snap(t.pos, t.layer);
    EXPECT_TRUE(seen.count(grid.index(pin)))
        << "terminal at " << pin << " not reached";
  }
}

class RouterTest : public ::testing::Test {
 protected:
  MetalStack stack;
  Rect die{{0, 0}, {56, 56}};
};

TEST_F(RouterTest, TwoPinNetStraightLine) {
  RouteTask t;
  t.net = 0;
  t.terminals = {{{5, 5}, 1}, {{45, 5}, 1}};
  Router router;
  const auto res = router.route({t}, die, stack);
  ASSERT_EQ(res.routes.size(), 1u);
  check_connected(res.grid, res.routes[0], t.terminals);
  // Mostly horizontal run: wirelength concentrated on few layers; via count
  // small (only pin access).
  EXPECT_GT(res.stats.total_wire_um(), 30.0);
  EXPECT_LT(res.stats.total_wire_um(), 80.0);
}

TEST_F(RouterTest, MultiPinNetConnectsAllTerminals) {
  RouteTask t;
  t.net = 7;
  t.terminals = {{{5, 5}, 1}, {{45, 45}, 1}, {{5, 45}, 1}, {{45, 5}, 1},
                 {{25, 25}, 1}};
  Router router;
  const auto res = router.route({t}, die, stack);
  check_connected(res.grid, res.routes[0], t.terminals);
}

TEST_F(RouterTest, MinLayerConstraintRespected) {
  RouteTask t;
  t.net = 1;
  t.terminals = {{{5, 5}, 1}, {{45, 45}, 1}};
  t.min_layer = 6;
  Router router;
  const auto res = router.route({t}, die, stack);
  ASSERT_TRUE(res.routes[0].success);
  check_connected(res.grid, res.routes[0], t.terminals);
  // All *wire* segments at or above M6; only via stacks below.
  for (const auto& seg : res.routes[0].segments) {
    if (!seg.is_via()) {
      EXPECT_GE(seg.a.layer, 6) << "wire below the lift layer";
    }
  }
  // Lifting forces vias through every layer boundary 1..6.
  for (int l = 1; l < 6; ++l) EXPECT_GE(res.stats.vias[static_cast<std::size_t>(l)], 2u);
}

TEST_F(RouterTest, UnconstrainedShortNetStaysLow) {
  RouteTask t;
  t.net = 2;
  t.terminals = {{{20, 20}, 1}, {{26, 20}, 1}};
  Router router;
  const auto res = router.route({t}, die, stack);
  ASSERT_TRUE(res.routes[0].success);
  double high_wire = 0, low_wire = 0;
  for (int l = 1; l <= 10; ++l) {
    if (l >= 5) high_wire += res.stats.wire_um[static_cast<std::size_t>(l)];
    else low_wire += res.stats.wire_um[static_cast<std::size_t>(l)];
  }
  EXPECT_EQ(high_wire, 0.0);  // via cost keeps a short net in M1-M4
  EXPECT_GT(low_wire, 0.0);
}

TEST_F(RouterTest, StatsViasMatchSegments) {
  RouteTask t;
  t.net = 3;
  t.terminals = {{{5, 5}, 1}, {{45, 45}, 1}};
  t.min_layer = 4;
  Router router;
  const auto res = router.route({t}, die, stack);
  const RoutingStats recomputed = collect_stats(res.grid, res.routes);
  EXPECT_EQ(recomputed.total_vias(), res.stats.total_vias());
  EXPECT_DOUBLE_EQ(recomputed.total_wire_um(), res.stats.total_wire_um());
}

/// Byte-level equality of two routing results: per-net success flags and
/// exact segment lists, plus the aggregate stats, overflow count and A*
/// work counters.
void expect_identical_routing(const RoutingResult& a, const RoutingResult& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    const auto& ra = a.routes[i];
    const auto& rb = b.routes[i];
    EXPECT_EQ(ra.net, rb.net);
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

TEST_F(RouterTest, DeterministicRouting) {
  std::vector<RouteTask> tasks;
  sm::util::Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    RouteTask t;
    t.net = static_cast<sm::netlist::NetId>(i);
    t.terminals = {{{rng.uniform(0, 56), rng.uniform(0, 56)}, 1},
                   {{rng.uniform(0, 56), rng.uniform(0, 56)}, 1}};
    tasks.push_back(std::move(t));
  }
  Router router;
  expect_identical_routing(router.route(tasks, die, stack),
                           router.route(tasks, die, stack));

  // A placed netlist on a fine grid, so negotiation rips and re-routes.
  CellLibrary lib;
  const auto nl = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c880"), 5);
  sm::place::Placer placer;
  const auto pl = placer.place(nl);
  RouterOptions opts;
  opts.gcell_um = 1.4;
  opts.passes = 4;
  const Router fine(opts);
  const auto net_tasks = make_tasks(nl, pl);
  const auto a = fine.route(net_tasks, pl.floorplan.die, lib.metal());
  const auto b = fine.route(net_tasks, pl.floorplan.die, lib.metal());
  EXPECT_EQ(a.stats.failed_nets, 0u);
  // The A* work counters are live, so comparing them means something.
  EXPECT_GT(a.stats.searches, 0u);
  EXPECT_GE(a.stats.heap_pops, a.stats.searches);
  EXPECT_GE(a.stats.heap_pushes, a.stats.heap_pops);
  expect_identical_routing(a, b);
}

TEST_F(RouterTest, CongestionSpreadsTraffic) {
  // Many parallel nets share a narrow corridor (pins spread over a few
  // gcell rows, as a legalized placement would). Negotiation must spread
  // them so overflow ends at (or very near) zero and never worse than a
  // single-pass route.
  auto corridor_tasks = [&] {
    std::vector<RouteTask> tasks;
    for (int i = 0; i < 48; ++i) {
      RouteTask t;
      t.net = static_cast<sm::netlist::NetId>(i);
      const double y = 14.0 + (i % 12) * 2.8;
      t.terminals = {{{2, y}, 1}, {{54, y}, 1}};
      tasks.push_back(std::move(t));
    }
    return tasks;
  };
  RouterOptions one_pass;
  one_pass.passes = 1;
  const auto base = Router(one_pass).route(corridor_tasks(), die, stack);
  RouterOptions negotiated;
  negotiated.passes = 6;
  const auto res = Router(negotiated).route(corridor_tasks(), die, stack);
  EXPECT_EQ(res.stats.failed_nets, 0u);
  EXPECT_LE(res.stats.overflowed_gcells, base.stats.overflowed_gcells);
  EXPECT_LE(res.stats.overflowed_gcells, 2u);
}

// The per-net tie-break streams must depend on the router seed (different
// seeds may legitimately break ties differently).
TEST_F(RouterTest, TieJitterIsSeededAndBounded) {
  RouteTask t;
  t.net = 0;
  t.terminals = {{{5, 5}, 1}, {{45, 5}, 1}};
  RouterOptions opts;
  opts.seed = 1;
  const auto a = Router(opts).route({t}, die, stack);
  opts.seed = 2;
  const auto b = Router(opts).route({t}, die, stack);
  // Jitter breaks ties only: the shortest-path length is unaffected.
  EXPECT_DOUBLE_EQ(a.stats.total_wire_um(), b.stats.total_wire_um());
  EXPECT_EQ(a.stats.failed_nets, 0u);
  EXPECT_EQ(b.stats.failed_nets, 0u);
}

/// Cheapest search cost from `from` to any of `targets` under the router's
/// move rules: lateral steps (cost 1) only along the layer's preferred
/// direction and never into a blocked gcell, via steps (cost `via_step`)
/// between adjacent layers, nothing below `min_layer` and nothing outside
/// `window`. Infinity when no target is reachable.
double reference_cost(const RouteGrid& grid, const MetalStack& stack,
                      const std::vector<char>& blocked,
                      const sm::util::GridRect& window, int min_layer,
                      double via_step, const GridPoint& from,
                      const std::vector<GridPoint>& targets) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(grid.num_nodes(), kInf);
  std::vector<char> is_target(grid.num_nodes(), 0);
  for (const auto& t : targets) is_target[grid.index(t)] = 1;
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
  dist[grid.index(from)] = 0.0;
  open.emplace(0.0, grid.index(from));
  while (!open.empty()) {
    const auto [d, node] = open.top();
    open.pop();
    if (d > dist[node]) continue;
    if (is_target[node]) return d;
    const GridPoint g = grid.at(node);
    auto relax = [&](const GridPoint& n, double cost) {
      if (!grid.in_bounds(n) || n.layer < min_layer ||
          !window.contains(n.x, n.y))
        return;
      const std::size_t ni = grid.index(n);
      if (n.layer == g.layer && blocked[ni]) return;
      if (d + cost < dist[ni]) {
        dist[ni] = d + cost;
        open.emplace(dist[ni], ni);
      }
    };
    if (stack.layer(g.layer).preferred == sm::netlist::Direction::Horizontal) {
      relax({g.x - 1, g.y, g.layer}, 1.0);
      relax({g.x + 1, g.y, g.layer}, 1.0);
    } else {
      relax({g.x, g.y - 1, g.layer}, 1.0);
      relax({g.x, g.y + 1, g.layer}, 1.0);
    }
    relax({g.x, g.y, g.layer - 1}, via_step);
    relax({g.x, g.y, g.layer + 1}, via_step);
  }
  return kInf;
}

// A* must return a cheapest path. Each random two-pin net routes alone on
// an empty grid with no tie jitter, so a lateral step costs exactly 1 and a
// via exactly via_cost + 1, and the route's search cost (its terminal via
// stacks aside) must equal a plain Dijkstra's over the same move rules and
// the same clipped window. A heuristic that overestimates by as little as
// one via on some nodes returns a costlier path on some of these nets.
TEST_F(RouterTest, AStarReturnsCheapestPath) {
  const Rect area{{0, 0}, {112, 84}};  // 40 x 30 gcells
  // Lateral wiring is blocked on M1-M7 in the middle of the area; vias and
  // M8-M10 stay open, so every net still routes inside its window.
  const Blockage blockage{Rect{{30, 20}, {75, 60}}, 1, 7};
  RouterOptions opts;
  opts.tie_jitter = 0.0;
  opts.passes = 1;
  const double via_step = opts.via_cost + 1.0;
  sm::util::Rng rng(11);
  for (const int min_layer : {1, 3, 6}) {
    for (const bool with_blockage : {false, true}) {
      opts.blockages.clear();
      if (with_blockage) opts.blockages.push_back(blockage);
      // Enough nets that swapping the turn test's axes, or adding layer_gap
      // and turn instead of taking their max, returns a costlier path.
      for (int i = 0; i < 150; ++i) {
        RouteTask t;
        t.net = static_cast<sm::netlist::NetId>(i);
        t.min_layer = min_layer;
        t.terminals = {{{rng.uniform(0, 112), rng.uniform(0, 84)}, 1},
                       {{rng.uniform(0, 112), rng.uniform(0, 84)}, 1}};
        const auto res = Router(opts).route({t}, area, stack);
        const RouteGrid& grid = res.grid;
        ASSERT_TRUE(res.routes[0].success);

        // The route's cost: every wire gcell, and every via except the two
        // terminal stacks from the pins (M1) up to min_layer.
        double lateral = 0;
        int vias = 0;
        for (const auto& seg : res.routes[0].segments) {
          if (seg.is_via())
            vias += std::abs(seg.a.layer - seg.b.layer);
          else
            lateral += seg.gcell_length();
        }
        vias -= 2 * (min_layer - 1);
        const double cost = lateral + via_step * vias;

        // The reference: from the sink's entry node to the driver's stack,
        // clipped to the terminal bbox inflated by bbox_margin.
        std::vector<char> blocked(grid.num_nodes(), 0);
        for (const auto& b : opts.blockages) {
          const GridPoint lo = grid.snap(b.region.lo, 1);
          const GridPoint hi = grid.snap(b.region.hi, 1);
          for (int l = b.min_layer; l <= b.max_layer; ++l)
            for (int y = lo.y; y <= hi.y; ++y)
              for (int x = lo.x; x <= hi.x; ++x)
                blocked[grid.index({x, y, l})] = 1;
        }
        const GridPoint drv = grid.snap(t.terminals[0].pos, 1);
        const GridPoint snk = grid.snap(t.terminals[1].pos, 1);
        sm::util::GridRect window;
        window.expand(drv.x, drv.y);
        window.expand(snk.x, snk.y);
        window = window.inflated(opts.bbox_margin)
                     .clamped({0, 0, grid.nx() - 1, grid.ny() - 1});
        std::vector<GridPoint> targets;
        for (int l = 1; l <= min_layer; ++l)
          targets.push_back({drv.x, drv.y, l});
        const double ref =
            reference_cost(grid, stack, blocked, window, min_layer, via_step,
                           {snk.x, snk.y, min_layer}, targets);
        ASSERT_TRUE(std::isfinite(ref));
        EXPECT_DOUBLE_EQ(cost, ref)
            << "net " << i << " min_layer " << min_layer << " blockage "
            << with_blockage << ": " << drv << " <- " << snk;
      }
    }
  }
}

// A net whose clipped window holds no path must retry on the full grid. The
// blockage walls off gcell columns 18-20 on every layer from row 0 to row
// 25; the net's window (rows 15 +- bbox_margin = 7..23) lies inside that
// span, so only a detour through rows 26-29 connects the pins.
TEST_F(RouterTest, ClippedFailureRetriesOnFullGrid) {
  const Rect area{{0, 0}, {112, 84}};  // 40 x 30 gcells
  auto gcell = [](int x, int y) {
    return Point{(x + 0.5) * 2.8, (y + 0.5) * 2.8};
  };
  RouteTask t;
  t.net = 0;
  t.terminals = {{gcell(5, 15), 1}, {gcell(35, 15), 1}};
  RouterOptions opts;
  ASSERT_EQ(opts.bbox_margin, 8);
  opts.blockages.push_back({Rect{gcell(18, 0), gcell(20, 25)}, 1, 10});
  const auto res = Router(opts).route({t}, area, stack);
  EXPECT_EQ(res.stats.failed_nets, 0u);
  bool detour = false;
  for (const auto& seg : res.routes[0].segments)
    detour |= std::max(seg.a.y, seg.b.y) >= 26;
  EXPECT_TRUE(detour) << "the route never left the clipped window";
  EXPECT_EQ(res.stats.searches, 2u);  // the clipped search, then the retry
  check_connected(res.grid, res.routes[0], t.terminals);
}

TEST_F(RouterTest, MakeTasksFromNetlist) {
  CellLibrary lib;
  const auto nl = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c432"), 1);
  sm::place::Placer placer;
  const auto pl = placer.place(nl);
  const auto tasks = make_tasks(nl, pl);
  // One task per net with sinks; driver first.
  EXPECT_GT(tasks.size(), nl.num_gates());
  for (const auto& t : tasks) {
    EXPECT_GE(t.terminals.size(), 2u);
    EXPECT_EQ(t.terminals[0].pos, pl.of(nl.net(t.net).driver));
  }
}

TEST_F(RouterTest, FullNetlistRoutes) {
  CellLibrary lib;
  const auto nl = sm::workloads::generate(
      lib, sm::workloads::iscas85_profile("c880"), 2);
  sm::place::Placer placer;
  const auto pl = placer.place(nl);
  const auto tasks = make_tasks(nl, pl);
  Router router;
  const auto res = router.route(tasks, pl.floorplan.die, stack);
  EXPECT_EQ(res.stats.failed_nets, 0u);
  EXPECT_GT(res.stats.total_wire_um(), 0.0);
  // Original layouts keep most wiring low (the Fig. 5 premise).
  double low = 0, high = 0;
  for (int l = 1; l <= 4; ++l) low += res.stats.wire_um[static_cast<std::size_t>(l)];
  for (int l = 5; l <= 10; ++l) high += res.stats.wire_um[static_cast<std::size_t>(l)];
  EXPECT_GT(low, high);
}

}  // namespace
