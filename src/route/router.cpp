#include "route/router.hpp"

#include "util/radix_queue.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <vector>

namespace sm::route {

using netlist::MetalStack;
using util::GridPoint;
using util::Point;

double RoutingStats::total_wire_um() const {
  double s = 0;
  for (const double w : wire_um) s += w;
  return s;
}

std::uint64_t RoutingStats::total_vias() const {
  std::uint64_t s = 0;
  for (const auto v : vias) s += v;
  return s;
}

std::vector<RouteTask> make_tasks(const netlist::Netlist& nl,
                                  const place::Placement& pl,
                                  const std::vector<int>& min_layer_of) {
  std::vector<RouteTask> tasks;
  tasks.reserve(nl.num_nets());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.sinks.empty()) continue;  // nothing to connect
    RouteTask t;
    t.net = n;
    t.min_layer = (n < min_layer_of.size()) ? min_layer_of[n] : 1;
    t.terminals.push_back({pl.of(net.driver), nl.type_of(net.driver).pin_layer});
    for (const auto& s : net.sinks)
      t.terminals.push_back({pl.of(s.cell), nl.type_of(s.cell).pin_layer});
    tasks.push_back(std::move(t));
  }
  return tasks;
}

RoutingStats collect_stats(const RouteGrid& grid,
                           const std::vector<NetRoute>& routes) {
  RoutingStats st;
  for (const auto& r : routes) {
    if (!r.success) {
      ++st.failed_nets;
      continue;
    }
    for (const auto& seg : r.segments) {
      if (seg.is_via()) {
        const int lo = std::min(seg.a.layer, seg.b.layer);
        const int hi = std::max(seg.a.layer, seg.b.layer);
        for (int l = lo; l < hi; ++l) ++st.vias[static_cast<std::size_t>(l)];
      } else {
        st.wire_um[static_cast<std::size_t>(seg.a.layer)] +=
            seg.gcell_length() * grid.gcell_um();
      }
    }
  }
  return st;
}

namespace {

/// Congestion state: committed usage, negotiation history, blockages,
/// per-layer capacities, and the PathFinder pressure schedule. History,
/// pressure and the keep selection change between passes; usage changes
/// after every routed net. Each node's PathFinder cost is cached and
/// recomputed, by the one expression in price(), wherever its usage, its
/// history or the pressure changes, so an A* relaxation reads one double.
class CongestionState {
 public:
  CongestionState(const RouteGrid& grid, const MetalStack& stack,
                  const RouterOptions& opts)
      : nxy_(static_cast<std::size_t>(grid.nx()) *
             static_cast<std::size_t>(grid.ny())) {
    const std::size_t n = grid.num_nodes();
    usage_.assign(n, 0);
    history_.assign(n, 0.0f);
    cost_.assign(n, 0.0);
    cap_.resize(static_cast<std::size_t>(grid.layers()) + 1);
    for (int l = 1; l <= grid.layers(); ++l)
      cap_[static_cast<std::size_t>(l)] = grid.capacity(stack, l);

    blocked_.assign(n, 0);
    for (const auto& b : opts.blockages) {
      const GridPoint lo = grid.snap(b.region.lo, 1);
      const GridPoint hi = grid.snap(b.region.hi, 1);
      for (int l = std::max(1, b.min_layer);
           l <= std::min(grid.layers(), b.max_layer); ++l)
        for (int y = lo.y; y <= hi.y; ++y)
          for (int x = lo.x; x <= hi.x; ++x)
            blocked_[grid.index({x, y, l})] = 1;
    }
    price_all();
  }

  bool blocked(std::size_t idx) const { return blocked_[idx] != 0; }

  /// Would one more net through `idx` stay within its layer's capacity?
  bool fits(std::size_t idx) const { return usage_[idx] + 1 <= cap_of(idx); }

  void add_usage(std::size_t idx, int delta) {
    usage_[idx] = static_cast<std::int32_t>(usage_[idx] + delta);
    cost_[idx] = price(idx, cap_of(idx));
  }

  void clear_usage() {
    std::fill(usage_.begin(), usage_.end(), 0);
    price_all();
  }

  /// PathFinder cost of stepping onto node `idx`. The present-overuse
  /// penalty grows with each negotiation round (set_pressure), the classic
  /// PathFinder schedule that forces convergence.
  double node_cost(std::size_t idx) const { return cost_[idx]; }

  void set_pressure(double p) {
    pressure_ = p;
    price_all();
  }

  void bump_history() {
    for_each_node([&](std::size_t i, int cap) {
      const int over = usage_[i] - cap;
      if (over > 0)
        history_[i] += static_cast<float>(kHistoryIncrement * over);
    });
    price_all();
  }

  std::size_t count_overflow() const {
    std::size_t n = 0;
    for_each_node([&](std::size_t i, int cap) {
      if (usage_[i] > cap) ++n;
    });
    return n;
  }

 private:
  int cap_of(std::size_t idx) const { return cap_[idx / nxy_ + 1]; }

  double price(std::size_t idx, int cap) const {
    const int over = usage_[idx] + 1 - cap;
    double c = 1.0 + static_cast<double>(history_[idx]);
    if (over > 0) c += kOverflowPenalty * pressure_ * over;
    return c;
  }

  void price_all() {
    for_each_node([&](std::size_t i, int cap) { cost_[i] = price(i, cap); });
  }

  /// Call f(node, its layer's capacity) for every node, layer by layer.
  template <typename F>
  void for_each_node(F&& f) const {
    for (std::size_t l = 1; l < cap_.size(); ++l)
      for (std::size_t i = (l - 1) * nxy_; i < l * nxy_; ++i) f(i, cap_[l]);
  }

  std::size_t nxy_;  ///< nodes per layer
  std::vector<std::int32_t> usage_;
  std::vector<float> history_;
  std::vector<double> cost_;  ///< price() of every node, kept current
  std::vector<std::uint8_t> blocked_;
  std::vector<int> cap_;
  double pressure_ = 1.0;
};

/// A* work summed over every search of one Router::route call (clipped
/// searches and their unclipped retries alike).
struct SearchWork {
  std::uint64_t searches = 0;
  std::uint64_t heap_pops = 0;
  std::uint64_t heap_pushes = 0;
};

/// A* search state in one per-node record stamped per search, so repeated
/// searches cost O(visited), not O(grid): every search takes two fresh
/// stamps first, so no state of a previous search is ever read. Reads the
/// CongestionState and never writes it; the caller commits a net's usage
/// after its searches.
///
/// Cost model: a lateral step costs the entered node's node_cost (>= 1), a
/// via step kViaCost plus that (>= kViaCost + 1), plus the net's tie jitter.
/// G-scores are doubles: float rounding at die-scale path costs exceeds the
/// jitter, so near-ties would fall to expansion order and the route would
/// depend on the heuristic. In double the jittered cheapest path is unique
/// and A* returns it under any consistent heuristic.
///
/// The open list is a util::RadixQueue keyed by the bits of f = g + h,
/// which pops in strict (f, node) order: an equal-f tie goes to the lower
/// node index. Any queue with that order pops the same sequence, so routes
/// and the A* counters do not depend on the queue's shape.
class Searcher {
 public:
  Searcher(const RouteGrid& grid, const MetalStack& stack,
           const RouterOptions& opts, const CongestionState& cong)
      : grid_(&grid), opts_(&opts), cong_(&cong),
        via_lb_(kViaCost + 1.0),
        nx_(static_cast<std::size_t>(grid.nx())),
        nxy_(nx_ * static_cast<std::size_t>(grid.ny())),
        layers_(grid.layers()) {
    // Open-list ids are 32-bit node indices, and records hold 16-bit
    // coordinates.
    constexpr int kMaxSide = std::numeric_limits<std::uint16_t>::max();
    if (grid.num_nodes() > std::numeric_limits<std::uint32_t>::max() ||
        grid.nx() > kMaxSide || grid.ny() > kMaxSide)
      throw std::length_error("router: routing grid too large");
    const std::size_t n = grid.num_nodes();
    node_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const GridPoint g = grid.at(i);
      node_[i].x = static_cast<std::uint16_t>(g.x);
      node_[i].y = static_cast<std::uint16_t>(g.y);
      node_[i].layer = static_cast<std::uint16_t>(g.layer);
    }
    target_mark_.assign(n, 0);
    tree_mark_.assign(n, 0);
    wx1_ = grid.nx() - 1;
    wy1_ = grid.ny() - 1;
    // Layer metadata resolved once: MetalStack::layer() is an out-of-line
    // call, too slow for every A* edge relaxation.
    preferred_.resize(static_cast<std::size_t>(grid.layers()) + 1);
    for (int l = 1; l <= grid.layers(); ++l)
      preferred_[static_cast<std::size_t>(l)] = stack.layer(l).preferred;
  }

  /// Select the net about to be routed: its deterministic tie-break stream.
  /// The per-node amplitude is tie_jitter normalized by the grid extent, so
  /// even summed over a die-spanning path the total perturbation stays
  /// below tie_jitter — far below one real step — and can never make a
  /// genuinely longer route win, only break exact ties.
  void set_net(std::uint64_t jitter_seed) {
    jitter_seed_ = jitter_seed;
    const double norm = static_cast<double>(grid_->nx() + grid_->ny()) +
                        2.0 * static_cast<double>(grid_->layers());
    jitter_scale_ = opts_->tie_jitter * 0x1.0p-53 / norm;
  }

  /// Clip every subsequent search to the lateral window `w` (layers stay
  /// unrestricted — via stacks and lifted wiring need them all): a net's
  /// inflated terminal bbox, or the full grid for its retry. The window
  /// must lie inside the grid and hold the search's start.
  void set_window(const util::GridRect& w) {
    wx0_ = w.x0;
    wy0_ = w.y0;
    wx1_ = w.x1;
    wy1_ = w.y1;
  }

  /// Epoch-stamped membership set for the net tree under construction —
  /// O(1) insert/lookup where the previous router did a linear scan.
  void tree_reset() { ++tree_epoch_; }
  bool tree_add(std::size_t idx) {
    if (tree_mark_[idx] == tree_epoch_) return false;
    tree_mark_[idx] = tree_epoch_;
    return true;
  }
  bool tree_has(std::size_t idx) const {
    return tree_mark_[idx] == tree_epoch_;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// A* from `start` to any node in `targets` (marked via target_mark_).
  /// Layers below `min_layer` are off-limits, and `start` must not lie
  /// below it. Returns the reached target node or npos; the records'
  /// parents encode the path. Adds its queue traffic to work().
  std::size_t search(std::size_t start, const std::vector<std::size_t>& targets,
                     int min_layer) {
    stamp_ += 2;
    const std::uint32_t open = stamp_;        // g and parent set
    const std::uint32_t closed = stamp_ + 1;  // popped
    // Mark targets and compute their bbox for the heuristic.
    tminx_ = tminy_ = tminl_ = std::numeric_limits<int>::max();
    tmaxx_ = tmaxy_ = tmaxl_ = std::numeric_limits<int>::min();
    for (const auto t : targets) {
      const Node& g = node_[t];
      tminx_ = std::min<int>(tminx_, g.x);
      tmaxx_ = std::max<int>(tmaxx_, g.x);
      tminy_ = std::min<int>(tminy_, g.y);
      tmaxy_ = std::max<int>(tmaxy_, g.y);
      tminl_ = std::min<int>(tminl_, g.layer);
      tmaxl_ = std::max<int>(tmaxl_, g.layer);
      target_mark_[t] = open;
    }

    open_.clear();
    Node& s = node_[start];
    s.g = 0.0;
    s.parent = static_cast<std::uint32_t>(start);
    s.stamp = open;
    push(0.0, s.x, s.y, s.layer, start);
    std::uint64_t pops = 0, pushes = 1;

    // The relaxations below skip the bounds checks that two invariants
    // make redundant. Every popped node lies inside the search window at a
    // layer >= min_layer: the start does, a lateral push is checked
    // against the window, and a via push keeps x and y and is checked
    // against the layers. The window is clamped to the grid, so a lateral
    // step that stays in the window stays on the grid, and a via step
    // needs only the layer bounds.
    const int lowest = std::max(1, min_layer);
    std::size_t found = npos;
    while (!open_.empty()) {
      const std::size_t node = open_.pop();
      ++pops;
      Node& cur = node_[node];
      if (cur.stamp == closed) continue;
      cur.stamp = closed;
      if (target_mark_[node] == open) {
        found = node;
        break;
      }
      const int x = cur.x, y = cur.y, l = cur.layer;
      const double g = cur.g;
      const auto relax = [&](std::size_t ni, double base, int nx, int ny,
                             int nl) {
        Node& n = node_[ni];
        if (n.stamp == closed) return;
        const double cost = base + cong_->node_cost(ni) + jitter(ni);
        if (n.stamp == open && n.g <= cost) return;
        n.g = cost;
        n.parent = static_cast<std::uint32_t>(node);
        n.stamp = open;
        push(cost, nx, ny, nl, ni);
        ++pushes;
      };
      // Blockages forbid lateral wiring; vias (layer changes) pass.
      if (preferred_[static_cast<std::size_t>(l)] ==
          netlist::Direction::Horizontal) {
        if (x > wx0_ && !cong_->blocked(node - 1))
          relax(node - 1, g, x - 1, y, l);
        if (x < wx1_ && !cong_->blocked(node + 1))
          relax(node + 1, g, x + 1, y, l);
      } else {
        if (y > wy0_ && !cong_->blocked(node - nx_))
          relax(node - nx_, g, x, y - 1, l);
        if (y < wy1_ && !cong_->blocked(node + nx_))
          relax(node + nx_, g, x, y + 1, l);
      }
      const double via = g + kViaCost;
      if (l > lowest) relax(node - nxy_, via, x, y, l - 1);
      if (l < layers_) relax(node + nxy_, via, x, y, l + 1);
    }

    ++work_.searches;
    work_.heap_pops += pops;
    work_.heap_pushes += pushes;
    return found;
  }

  const SearchWork& work() const { return work_; }

  /// Walk parents from `node` back to the search start.
  std::vector<std::size_t> backtrack(std::size_t node) const {
    std::vector<std::size_t> path{node};
    while (node_[node].parent != node) {
      node = node_[node].parent;
      path.push_back(node);
    }
    return path;
  }

 private:
  /// One grid node: its fixed coordinates and the search state, valid
  /// while `stamp` is the current search's open or closed stamp.
  struct Node {
    double g = 0.0;
    std::uint32_t parent = 0;
    std::uint32_t stamp = 0;
    std::uint16_t x = 0, y = 0, layer = 0;
  };

  /// Queue `node` at f = g + heuristic. f >= +0.0 always holds: g starts
  /// at +0.0, every step costs at least 1, and the heuristic is >= +0.0.
  /// So f is never -0.0 or NaN, and its bits sort like its value.
  void push(double g, int x, int y, int layer, std::size_t node) {
    open_.push(std::bit_cast<std::uint64_t>(g + heuristic(x, y, layer)),
               static_cast<std::uint32_t>(node));
  }

  /// Lower bound on the cost from (x, y, layer) to the nearest target:
  ///   dx + dy + (kViaCost + 1) * max(layer_gap, turn),
  /// with dx, dy, layer_gap the distances to the targets' bounding box and
  /// layer span, and turn = 1 when the layer cannot move along the
  /// remaining offset (a horizontal layer with dy > 0, a vertical one with
  /// dx > 0). Admissible: reaching any target takes >= dx + dy lateral
  /// steps (cost >= 1 each) and >= max(layer_gap, turn) vias (cost >=
  /// kViaCost + 1 each). Consistent: a lateral step changes only dx or dy,
  /// by at most 1; a via step changes max(layer_gap, turn) by at most 1.
  double heuristic(int x, int y, int layer) const {
    const int dx = std::max({0, tminx_ - x, x - tmaxx_});
    const int dy = std::max({0, tminy_ - y, y - tmaxy_});
    const int layer_gap = std::max({0, tminl_ - layer, layer - tmaxl_});
    const bool horizontal = preferred_[static_cast<std::size_t>(layer)] ==
                            netlist::Direction::Horizontal;
    const int turn = (horizontal ? dy : dx) > 0 ? 1 : 0;
    return static_cast<double>(dx + dy) +
           via_lb_ * static_cast<double>(std::max(layer_gap, turn));
  }

  /// Deterministic per-(net, node) tie-break noise in [0, tie_jitter).
  /// A pure function of the net's seed and the node index, so a net prices
  /// ties identically in every pass.
  /// One multiply + xorshift: runs on every A* edge relaxation, where the
  /// full splitmix64 chain measurably shows up; tie-breaking only needs
  /// decorrelation between nets, not PRNG-grade uniformity.
  double jitter(std::size_t idx) const {
    std::uint64_t s = (jitter_seed_ ^ static_cast<std::uint64_t>(idx)) *
                      0x9e3779b97f4a7c15ULL;
    s ^= s >> 29;
    return jitter_scale_ * static_cast<double>(s >> 11);
  }

  const RouteGrid* grid_;
  const RouterOptions* opts_;
  const CongestionState* cong_;
  double via_lb_;    ///< lower bound on a via step's cost
  std::size_t nx_;   ///< index stride of a y step
  std::size_t nxy_;  ///< index stride of a layer step
  int layers_;
  std::vector<Node> node_;
  std::vector<std::uint32_t> target_mark_;
  std::vector<std::uint32_t> tree_mark_;
  util::RadixQueue open_;
  std::vector<netlist::Direction> preferred_;  ///< per-layer wire direction
  std::uint32_t stamp_ = 0;
  std::uint32_t tree_epoch_ = 0;
  SearchWork work_;
  std::uint64_t jitter_seed_ = 0;
  double jitter_scale_ = 0.0;
  int tminx_ = 0, tmaxx_ = 0, tminy_ = 0, tmaxy_ = 0, tminl_ = 0, tmaxl_ = 0;
  std::int32_t wx0_ = 0, wy0_ = 0, wx1_ = 0, wy1_ = 0;  ///< search window
};

/// Compress a node path into straight wire segments and single via segments.
void emit_segments(const RouteGrid& grid, const std::vector<std::size_t>& path,
                   std::vector<RouteSegment>& out) {
  if (path.size() < 2) return;
  GridPoint run_start = grid.at(path.back());
  GridPoint prev = run_start;
  // Walk from search start to end (path is backtracked, so reverse).
  for (std::size_t k = path.size() - 1; k-- > 0;) {
    const GridPoint cur = grid.at(path[k]);
    if (cur.layer != prev.layer) {  // via step
      if (!(run_start == prev)) out.push_back({run_start, prev});
      out.push_back({prev, cur});
      run_start = cur;
    } else if ((run_start.x != prev.x && cur.y != prev.y) ||
               (run_start.y != prev.y && cur.x != prev.x)) {
      // Direction change: close the finished run; the new run starts at
      // prev so the prev->cur step is not lost.
      out.push_back({run_start, prev});
      run_start = prev;
    }
    prev = cur;
  }
  if (!(run_start == prev)) out.push_back({run_start, prev});
}

/// Nodes a (terminal) via stack occupies from the pin layer up to `to_layer`.
void stack_nodes(const RouteGrid& grid, const Terminal& t, int to_layer,
                 std::vector<std::size_t>& out) {
  const GridPoint base = grid.snap(t.pos, t.layer);
  const int lo = std::min(base.layer, to_layer);
  const int hi = std::max(base.layer, to_layer);
  for (int l = lo; l <= hi; ++l)
    out.push_back(grid.index({base.x, base.y, l}));
}

struct TaskState {
  std::vector<std::size_t> nodes;  ///< all grid nodes the net occupies
  NetRoute route;
};

/// Route one net against the current congestion. Writes only `st` (and
/// the searcher); the caller commits the net's nodes to the usage.
void route_net(const RouteGrid& grid, const RouteTask& task, Searcher& s,
               TaskState& st) {
  st.route = NetRoute{};
  st.route.net = task.net;
  st.route.min_layer = task.min_layer;
  st.nodes.clear();
  if (task.terminals.empty()) return;
  const int ml = std::max(1, task.min_layer);

  // Seed the net tree with the driver terminal's via stack.
  s.tree_reset();
  std::vector<std::size_t> tree;
  auto tree_push = [&](std::size_t idx) {
    if (s.tree_add(idx)) tree.push_back(idx);
  };
  {
    std::vector<std::size_t> stack_idx;
    stack_nodes(grid, task.terminals[0], ml, stack_idx);
    for (const auto idx : stack_idx) tree_push(idx);
  }
  if (ml > task.terminals[0].layer) {
    const GridPoint b = grid.snap(task.terminals[0].pos, task.terminals[0].layer);
    st.route.segments.push_back({b, {b.x, b.y, ml}});
  }
  bool ok = true;

  // Connect remaining terminals nearest-first (Prim-like order).
  std::vector<std::size_t> remaining;
  for (std::size_t k = 1; k < task.terminals.size(); ++k) remaining.push_back(k);
  std::stable_sort(remaining.begin(), remaining.end(),
                   [&](std::size_t a, std::size_t b) {
                     return util::manhattan(task.terminals[a].pos,
                                            task.terminals[0].pos) <
                            util::manhattan(task.terminals[b].pos,
                                            task.terminals[0].pos);
                   });

  for (const std::size_t k : remaining) {
    const Terminal& term = task.terminals[k];
    const GridPoint entry_pin = grid.snap(term.pos, term.layer);
    const GridPoint entry{entry_pin.x, entry_pin.y, std::max(entry_pin.layer, ml)};
    const std::size_t entry_idx = grid.index(entry);

    // Degenerate: terminal already on the tree.
    if (!s.tree_has(entry_idx)) {
      const std::size_t hit = s.search(entry_idx, tree, ml);
      if (hit == Searcher::npos) {
        ok = false;
        continue;
      }
      const auto path = s.backtrack(hit);
      emit_segments(grid, path, st.route.segments);
      // path runs hit -> ... -> entry (backtrack order); add all to tree.
      for (const auto nidx : path) tree_push(nidx);
    }
    // Terminal via stack (pin layer up to the entry layer).
    if (entry.layer > entry_pin.layer) {
      st.route.segments.push_back({entry_pin, entry});
      for (int l = entry_pin.layer; l <= entry.layer; ++l)
        tree_push(grid.index({entry.x, entry.y, l}));
    }
  }

  st.route.success = ok;
  // Pin-layer nodes at the terminals do not consume routing capacity:
  // pin access is already accounted in the per-layer capacity derate, and
  // several pins legitimately share one gcell. Everything else does.
  std::vector<std::size_t> pin_nodes;
  for (const auto& term : task.terminals)
    pin_nodes.push_back(grid.index(grid.snap(term.pos, term.layer)));
  std::sort(pin_nodes.begin(), pin_nodes.end());
  for (const auto nidx : tree)
    if (!std::binary_search(pin_nodes.begin(), pin_nodes.end(), nidx))
      st.nodes.push_back(nidx);
}

}  // namespace

RoutingResult Router::route(const std::vector<RouteTask>& tasks,
                            const util::Rect& die,
                            const MetalStack& stack) const {
  RoutingResult result;
  result.grid = RouteGrid(die, opts_.gcell_um, stack.num_layers());
  const RouteGrid& grid = result.grid;
  CongestionState cong(grid, stack, opts_);
  Searcher searcher(grid, stack, opts_, cong);

  std::vector<TaskState> state(tasks.size());

  // Fixed net order: short nets first (they have the least flexibility).
  // This is both the greedy-keep order and the routing order, so the whole
  // negotiation is a pure function of (tasks, options).
  // Each task's span (its terminal bbox's half perimeter) is computed once;
  // the sort then compares the stored spans.
  std::vector<std::size_t> order(tasks.size());
  std::vector<double> span(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
    const auto& terms = tasks[i].terminals;
    util::Rect box = util::Rect::around(terms.empty() ? Point{} : terms[0].pos);
    for (const auto& term : terms) box.expand(term.pos);
    span[i] = box.half_perimeter();
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return span[a] < span[b];
  });

  // Per-net search windows: the terminal bbox inflated by kBboxMargin, a
  // property of the problem, computed once up front.
  const util::GridRect grid_rect{0, 0, grid.nx() - 1, grid.ny() - 1};
  std::vector<util::GridRect> window(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    util::GridRect b;
    for (const auto& term : tasks[i].terminals) {
      const GridPoint g = grid.snap(term.pos, term.layer);
      b.expand(g.x, g.y);
    }
    if (b.empty()) b = util::GridRect::around(0, 0);
    window[i] = b.inflated(kBboxMargin).clamped(grid_rect);
  }

  // Route one net inside `w` and commit its usage at once, so every later
  // net sees it.
  auto route_one = [&](std::size_t ti, const util::GridRect& w) {
    searcher.set_net(util::task_seed(opts_.seed, ti));
    searcher.set_window(w);
    route_net(grid, tasks[ti], searcher, state[ti]);
    for (const auto nidx : state[ti].nodes) cong.add_usage(nidx, 1);
  };

  // One pass over `ripped` (in fixed net order), each net clipped to its
  // window. Clipping can make a routable net fail (a forced detour past the
  // margin): those retry on the full grid, in fixed net order, after every
  // other net of the pass committed. Records the pass's work.
  std::vector<PassWork> passes;
  auto route_pass = [&](const std::vector<std::size_t>& ripped) {
    const SearchWork before = searcher.work();
    PassWork pw;
    pw.nets_routed = ripped.size();
    for (const auto ti : ripped) route_one(ti, window[ti]);
    for (const auto ti : ripped) {
      if (state[ti].route.success) continue;
      for (const auto nidx : state[ti].nodes) cong.add_usage(nidx, -1);
      route_one(ti, grid_rect);
      ++pw.full_grid_retries;
    }
    const SearchWork& after = searcher.work();
    pw.searches = after.searches - before.searches;
    pw.heap_pops = after.heap_pops - before.heap_pops;
    pw.heap_pushes = after.heap_pushes - before.heap_pushes;
    pw.overflowed_gcells = cong.count_overflow();
    passes.push_back(pw);
  };

  // Pass 0: route everything.
  std::vector<std::size_t> ripped = order;
  route_pass(ripped);

  // Negotiated congestion: keep nets greedily up to each node's capacity
  // (in fixed net order), rip the excess, re-route the ripped nets against
  // the kept usage + bumped history, repeat. Unlike
  // rip-everything-overflowing, the kept nets pin the tracks they legally
  // fill, so re-routed nets see full tracks as expensive and spread instead
  // of oscillating in lockstep.
  for (int pass = 1; pass < opts_.passes; ++pass) {
    if (passes.back().overflowed_gcells == 0) break;
    cong.bump_history();
    cong.set_pressure(1.0 + static_cast<double>(pass));

    ripped.clear();
    cong.clear_usage();
    for (const auto ti : order) {
      TaskState& st = state[ti];
      bool rip = !st.route.success;
      if (!rip) {
        for (const auto nidx : st.nodes) {
          if (!cong.fits(nidx)) {
            rip = true;
            break;
          }
        }
      }
      if (rip) {
        st.nodes.clear();
        st.route.segments.clear();
        ripped.push_back(ti);
      } else {
        for (const auto nidx : st.nodes) cong.add_usage(nidx, 1);
      }
    }
    route_pass(ripped);
  }

  result.routes.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    result.routes[i] = std::move(state[i].route);
  result.stats = collect_stats(grid, result.routes);
  result.stats.overflowed_gcells = passes.back().overflowed_gcells;
  result.stats.searches = searcher.work().searches;
  result.stats.heap_pops = searcher.work().heap_pops;
  result.stats.heap_pushes = searcher.work().heap_pushes;
  result.stats.passes = std::move(passes);
  return result;
}

}  // namespace sm::route
