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
// Negotiation is round-based: every round selects the nets to rip up
// (greedy keep-up-to-capacity in a fixed net order) and re-routes them over
// a util::ThreadPool. Two re-route schedulers exist (RouterOptions::
// partition):
//
//   Tree (default) — a ParaDRo-style spatial partition tree over the
//   ripped nets' search windows (route/partition_tree.hpp). Each net's A*
//   is clipped to its terminal bbox inflated by bbox_margin; the net lands
//   at the deepest tree node whose region contains that window. Sibling
//   subtrees route *concurrently against live congestion* — a net only
//   touches usage inside its own window, sibling regions are disjoint, so
//   no interleaving of sibling work is observable. Within a node, nets
//   route and commit one by one in the fixed net order; a node's own
//   (cutline-crossing) nets route only after both child subtrees finished.
//   Nets that fail inside their clipped window re-route serially at the
//   root with the full grid after the tree pass. The only net pairs whose
//   windows overlap are same-node or ancestor/descendant pairs, and the
//   tree order fixes both — so routes are bit-identical for every `jobs`
//   AND every `partition_depth` (the depth only caps where parallel tasks
//   fan out; the tree itself is a pure function of nets + grid).
//
//   Rounds (escape hatch, --route-partition=rounds) — the former
//   snapshot-commit scheme: ripped nets re-route in fixed-size chunks
//   against the frozen usage/history committed so far, then commit in
//   fixed order before the next chunk starts.
//
// Both schedulers draw each net's cost-tie jitter from its own
// util::task_seed stream and lease epoch-stamped per-worker Searchers, so
// which thread routes which net never leaks into results
// (tests/test_route.cpp and tests/test_partition_tree.cpp hold the
// bit-identity as regressions).
//
// Each A* search is guided by a consistent lower bound that also prices
// the vias the remaining offset needs, and keeps its path costs in double
// precision, so it returns the unique jittered cheapest path whatever the
// bound (docs/ARCHITECTURE.md, `route`; tests/test_route.cpp checks the
// optimality against a reference Dijkstra).
#pragma once

#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "route/grid.hpp"
#include "util/geometry.hpp"

#include <array>
#include <cstdint>
#include <string>
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

struct RoutingStats {
  /// Wirelength in microns per layer; index 1..10 (0 unused).
  std::array<double, netlist::MetalStack::kNumLayers + 1> wire_um{};
  /// Via counts; index l counts vias between layer l and l+1 (1..9).
  std::array<std::uint64_t, netlist::MetalStack::kNumLayers> vias{};
  std::size_t failed_nets = 0;
  std::size_t overflowed_gcells = 0;
  /// A* work over every pass, including the unclipped retries of nets that
  /// failed inside their window. Identical for every jobs and
  /// partition_depth; Router::route fills them, collect_stats leaves 0.
  std::uint64_t searches = 0;     ///< two-pin connection searches
  std::uint64_t heap_pops = 0;    ///< open-list pops, stale entries included
  std::uint64_t heap_pushes = 0;  ///< open-list pushes

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

/// Scheduler for a negotiation round's net re-routes (header comment above).
enum class RoutePartition {
  Tree,    ///< spatial partition tree, live in-region congestion (default)
  Rounds,  ///< legacy snapshot-commit chunks against frozen congestion
};

/// Parse "tree"/"rounds" (std::invalid_argument otherwise) — the CLI and
/// bench --route-partition flags share this validated path.
RoutePartition route_partition_from_string(const std::string& name);
const char* to_string(RoutePartition p);

struct RouterOptions {
  double gcell_um = 2.8;
  int passes = 3;            ///< rip-up & re-route rounds (>= 1)
  double via_cost = 3.5;     ///< cost of one layer crossing (vs 1 per gcell)
  double overflow_penalty = 4.0;
  double history_increment = 1.5;
  /// Per-net deterministic tie-break noise added to each node cost, drawn
  /// from util::task_seed(seed, task index). Decorrelates otherwise
  /// identical nets (they stop stacking on one track). The per-node
  /// amplitude is this value divided by the grid extent, so even summed
  /// over a die-spanning path the total perturbation stays below
  /// tie_jitter — far under the cost of any real detour (one gcell step
  /// = 1.0) — and route quality is unaffected. 0 disables it.
  double tie_jitter = 0.05;
  std::uint64_t seed = 1;
  /// Worker threads for each round's net re-routes; 0 = hardware
  /// concurrency. Routes are bit-identical for every value.
  std::size_t jobs = 1;
  /// Re-route scheduler (header comment). Tree changes which routes are
  /// produced vs Rounds (live instead of frozen congestion, clipped
  /// searches) — both are individually deterministic.
  RoutePartition partition = RoutePartition::Tree;
  /// Tree depth at which parallel tasks fan out: below it, whole subtrees
  /// run as one sequential task (coarser tasks, fewer barriers); above it,
  /// each tree level is a parallel batch. Scheduling granularity ONLY —
  /// never changes routes. < 0 = auto (enough fan-out for ~4 tasks per
  /// worker, clamped to the tree's own depth, which the grid extent and
  /// net spread bound).
  int partition_depth = -1;
  /// Gcells added on every side of a net's terminal bbox to form its
  /// clipped search window under Tree (detour headroom). Affects routes
  /// (it is part of the problem, not the schedule).
  int bbox_margin = 8;
  std::vector<Blockage> blockages;
};

class Router {
 public:
  explicit Router(RouterOptions opts = {}) : opts_(opts) {}

  /// Route all tasks inside `die`. Deterministic in (tasks, options);
  /// RouterOptions::jobs never changes the result, only the wall time.
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
