// Grid router: A* maze routing per two-pin connection with PathFinder-style
// negotiated congestion (history + present overuse costs, rip-up and
// re-route of overflowing nets).
//
// This substitutes for Cadence Innovus' routing step (DESIGN.md Sec. 2).
// The paper's evaluation consumes exactly what this router produces:
//   - per-layer wirelength shares (Fig. 5),
//   - via counts between adjacent layers V12..V910 (Tables 2 and 6),
//   - the route geometry at the split layer, i.e. vpins and dangling-wire
//     directions (crouting attack, Table 3; proximity attack, Tables 4/5).
//
// Wire lifting (the paper's correction/naive-lift cells prepare nets for
// lifting to M6/M8) is expressed with RouteTask::min_layer: every route
// segment of such a task must run at or above that layer; terminals reach
// it through via stacks, exactly like the pins of the custom cells.
//
// Negotiation runs in passes on one thread. Every pass after the first
// keeps nets greedily up to capacity and rips the rest, in one fixed net
// order (short spans first); the ripped nets then route one by one in that
// same order, each A* clipped to its terminal bbox inflated by kBboxMargin
// gcells and committed at once, so later nets see its usage. Nets that fail
// inside their window re-route on the full grid after the pass. Each net
// draws its cost-tie jitter from its own util::task_seed stream. The fixed
// order makes the routes a pure function of (tasks, options);
// tests/test_route.cpp holds the determinism and the full-grid retry as
// regressions. The net order sorts task indices by spans computed once.
//
// Each A* search is guided by a consistent lower bound that also prices
// the vias the remaining offset needs, and keeps its path costs in double
// precision, so it returns the unique jittered cheapest path whatever the
// bound (docs/ARCHITECTURE.md, `route`; tests/test_route.cpp checks the
// optimality against a reference Dijkstra). Its open list is a radix queue
// (util/radix_queue.hpp) keyed by the bits of f that pops in strict
// (f, node) order; any queue with that order pops the same sequence, so
// neither the routes nor the A* counters depend on the queue's shape
// (tests/test_route.cpp pins both, with and without jitter).
#pragma once

#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "route/grid.hpp"
#include "util/geometry.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace sm::route {

/// A point a route must electrically reach.
struct Terminal {
  util::Point pos;
  int layer = 1;  ///< metal layer of the physical pin
};

/// One routing job (usually one net).
struct RouteTask {
  netlist::NetId net = netlist::kInvalidNet;  ///< tag for reporting
  std::vector<Terminal> terminals;            ///< first is the driver
  int min_layer = 1;  ///< all wiring must run at or above this layer
};

/// A straight wire piece on one layer, or a via (same x/y, adjacent layers).
struct RouteSegment {
  util::GridPoint a, b;
  bool is_via() const { return a.layer != b.layer; }
  int gcell_length() const { return util::manhattan(a, b); }
};

struct NetRoute {
  netlist::NetId net = netlist::kInvalidNet;
  std::vector<RouteSegment> segments;
  bool success = false;
  int min_layer = 1;
};

/// The work of one negotiation pass. Pass 0 routes every task; a later
/// pass routes the tasks it ripped.
struct PassWork {
  std::uint64_t searches = 0;      ///< two-pin connection searches
  std::uint64_t heap_pops = 0;     ///< open-list pops, stale entries included
  std::uint64_t heap_pushes = 0;   ///< open-list pushes
  std::size_t nets_routed = 0;     ///< tasks the pass routed
  std::size_t full_grid_retries = 0;  ///< of those, retried on the full grid
  std::size_t overflowed_gcells = 0;  ///< overflowed nodes after the pass
};

struct RoutingStats {
  /// Wirelength in microns per layer; index 1..10 (0 unused).
  std::array<double, netlist::MetalStack::kNumLayers + 1> wire_um{};
  /// Via counts; index l counts vias between layer l and l+1 (1..9).
  std::array<std::uint64_t, netlist::MetalStack::kNumLayers> vias{};
  std::size_t failed_nets = 0;
  std::size_t overflowed_gcells = 0;
  /// A* work over every pass, including the unclipped retries of nets that
  /// failed inside their window. Deterministic like the routes;
  /// Router::route fills them, collect_stats leaves 0.
  std::uint64_t searches = 0;     ///< two-pin connection searches
  std::uint64_t heap_pops = 0;    ///< open-list pops, stale entries included
  std::uint64_t heap_pushes = 0;  ///< open-list pushes
  /// One record per pass run, in order. Their searches, pops and pushes
  /// sum to the totals above, and the last one's overflow is
  /// overflowed_gcells. Router::route fills them, collect_stats leaves
  /// none.
  std::vector<PassWork> passes;

  double total_wire_um() const;
  std::uint64_t total_vias() const;
};

struct RoutingResult {
  RouteGrid grid;
  std::vector<NetRoute> routes;  ///< parallel to the task list
  RoutingStats stats;
};

/// A routing blockage: lateral wiring is forbidden inside `region` on layers
/// [min_layer, max_layer]; vias may still pass through (pin escape stays
/// possible). This models the routing-blockage defense of Magana et al. [7].
struct Blockage {
  util::Rect region;
  int min_layer = 1;
  int max_layer = 10;
};

/// Cost of one layer crossing (vs 1 per gcell).
inline constexpr double kViaCost = 3.5;
/// Present-overuse cost per net over capacity, times the pass's pressure.
inline constexpr double kOverflowPenalty = 4.0;
/// History cost added per net over capacity after each pass.
inline constexpr double kHistoryIncrement = 1.5;
/// Gcells added on every side of a net's terminal bbox to form its clipped
/// search window (detour headroom). Affects routes.
inline constexpr int kBboxMargin = 8;

struct RouterOptions {
  double gcell_um = 2.8;
  int passes = 3;            ///< rip-up & re-route passes (>= 1)
  /// Per-net deterministic tie-break noise added to each node cost, drawn
  /// from util::task_seed(seed, task index). Decorrelates otherwise
  /// identical nets (they stop stacking on one track). The per-node
  /// amplitude is this value divided by the grid extent, so even summed
  /// over a die-spanning path the total perturbation stays below
  /// tie_jitter — far under the cost of any real detour (one gcell step
  /// = 1.0) — and route quality is unaffected. 0 disables it.
  double tie_jitter = 0.05;
  std::uint64_t seed = 1;
  /// Ignored: the router runs on one thread. Kept declared only because
  /// perfbench/driver.cpp still writes it; it goes at the next change to
  /// the benchmark.
  std::size_t jobs = 1;
  std::vector<Blockage> blockages;
};

class Router {
 public:
  explicit Router(RouterOptions opts = {}) : opts_(opts) {}

  /// Route all tasks inside `die`, on the calling thread. Deterministic in
  /// (tasks, options).
  RoutingResult route(const std::vector<RouteTask>& tasks,
                      const util::Rect& die,
                      const netlist::MetalStack& stack) const;

 private:
  RouterOptions opts_;
};

/// Build one RouteTask per net of a placed netlist (driver pin first).
/// `min_layer_of` may be empty (all nets unconstrained) or indexed by NetId.
std::vector<RouteTask> make_tasks(const netlist::Netlist& nl,
                                  const place::Placement& pl,
                                  const std::vector<int>& min_layer_of = {});

/// Recompute aggregate statistics from per-net routes (exposed for tests).
RoutingStats collect_stats(const RouteGrid& grid,
                           const std::vector<NetRoute>& routes);

}  // namespace sm::route
