#include "route/router.hpp"

#include "util/rng.hpp"

#include <algorithm>
#include <limits>
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
/// after every routed net.
class CongestionState {
 public:
  CongestionState(const RouteGrid& grid, const MetalStack& stack,
                  const RouterOptions& opts)
      : grid_(&grid), opts_(&opts) {
    const std::size_t n = grid.num_nodes();
    usage_.assign(n, 0);
    history_.assign(n, 0.0f);
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
  }

  int capacity(int layer) const { return cap_[static_cast<std::size_t>(layer)]; }
  int usage_at(std::size_t idx) const { return usage_[idx]; }
  bool blocked(std::size_t idx) const { return blocked_[idx] != 0; }

  /// Would one more net through `idx` stay within the layer's capacity?
  bool fits(std::size_t idx, int layer) const {
    return usage_[idx] + 1 <= cap_[static_cast<std::size_t>(layer)];
  }

  void add_usage(std::size_t idx, int delta) {
    usage_[idx] = static_cast<std::int32_t>(usage_[idx] + delta);
  }

  void clear_usage() { std::fill(usage_.begin(), usage_.end(), 0); }

  /// PathFinder cost of stepping onto node `idx`. The present-overuse
  /// penalty grows with each negotiation round (set_pressure), the classic
  /// PathFinder schedule that forces convergence.
  double node_cost(std::size_t idx, int layer) const {
    const int over = usage_[idx] + 1 - cap_[static_cast<std::size_t>(layer)];
    double c = 1.0 + static_cast<double>(history_[idx]);
    if (over > 0) c += opts_->overflow_penalty * pressure_ * over;
    return c;
  }

  void set_pressure(double p) { pressure_ = p; }

  void bump_history() {
    for (std::size_t i = 0; i < usage_.size(); ++i) {
      const GridPoint g = grid_->at(i);
      const int over = usage_[i] - cap_[static_cast<std::size_t>(g.layer)];
      if (over > 0)
        history_[i] += static_cast<float>(opts_->history_increment * over);
    }
  }

  std::size_t count_overflow() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < usage_.size(); ++i) {
      const GridPoint g = grid_->at(i);
      if (usage_[i] > cap_[static_cast<std::size_t>(g.layer)]) ++n;
    }
    return n;
  }

 private:
  const RouteGrid* grid_;
  const RouterOptions* opts_;
  std::vector<std::int32_t> usage_;
  std::vector<float> history_;
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

/// A* search state with epoch-stamped arrays, so repeated searches cost
/// O(visited), not O(grid): every search bumps its epoch first, so no state
/// of a previous search is ever read. Reads the CongestionState and never
/// writes it; the caller commits a net's usage after its searches.
///
/// Cost model: a lateral step costs the entered node's node_cost (>= 1), a
/// via step via_cost plus that (>= via_cost + 1), plus the net's tie jitter.
/// G-scores are doubles: float rounding at die-scale path costs exceeds the
/// jitter, so near-ties would fall to expansion order and the route would
/// depend on the heuristic. In double the jittered cheapest path is unique
/// and A* returns it under any consistent heuristic.
class Searcher {
 public:
  Searcher(const RouteGrid& grid, const MetalStack& stack,
           const RouterOptions& opts, const CongestionState& cong)
      : grid_(&grid), opts_(&opts), cong_(&cong),
        via_lb_(opts.via_cost + 1.0) {
    const std::size_t n = grid.num_nodes();
    gscore_.assign(n, 0.0);
    parent_.assign(n, 0);
    epoch_mark_.assign(n, 0);
    closed_mark_.assign(n, 0);
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
  /// inflated terminal bbox, or the full grid for its retry.
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
  /// Layers below `min_layer` are off-limits. Returns the reached target
  /// node or npos; parent_ encodes the path. Adds its heap traffic to work().
  std::size_t search(std::size_t start, const std::vector<std::size_t>& targets,
                     int min_layer) {
    ++epoch_;
    // Mark targets and compute their bbox for the heuristic.
    tminx_ = tminy_ = tminl_ = std::numeric_limits<int>::max();
    tmaxx_ = tmaxy_ = tmaxl_ = std::numeric_limits<int>::min();
    for (const auto t : targets) {
      closed_mark_[t] = 0;  // ensure not stale-closed
      target_set_.push_back(t);
      const GridPoint g = grid_->at(t);
      tminx_ = std::min(tminx_, g.x);
      tmaxx_ = std::max(tmaxx_, g.x);
      tminy_ = std::min(tminy_, g.y);
      tmaxy_ = std::max(tmaxy_, g.y);
      tminl_ = std::min(tminl_, g.layer);
      tmaxl_ = std::max(tmaxl_, g.layer);
      target_mark_[t] = epoch_;
    }

    // Manual binary heap over a member buffer: a search allocates nothing
    // once the buffer has grown (std::priority_queue would be a fresh
    // vector per call — measurable at this call volume).
    heap_.clear();
    gscore_[start] = 0.0;
    epoch_mark_[start] = epoch_;
    parent_[start] = static_cast<std::uint32_t>(start);
    heap_.emplace_back(heuristic(grid_->at(start)), start);
    std::uint64_t pops = 0, pushes = 1;

    std::size_t found = npos;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const auto [f, node] = heap_.back();
      heap_.pop_back();
      ++pops;
      if (closed_mark_[node] == epoch_) continue;
      closed_mark_[node] = epoch_;
      if (target_mark_[node] == epoch_) {
        found = node;
        break;
      }
      const GridPoint g = grid_->at(node);
      auto try_step = [&](const GridPoint& ng, double step_cost) {
        if (!grid_->in_bounds(ng) || ng.layer < min_layer) return;
        if (ng.x < wx0_ || ng.x > wx1_ || ng.y < wy0_ || ng.y > wy1_) return;
        const std::size_t ni = grid_->index(ng);
        // Blockages forbid lateral wiring; vias (layer changes) pass.
        if (ng.layer == g.layer && cong_->blocked(ni)) return;
        if (closed_mark_[ni] == epoch_) return;
        const double ng_cost = gscore_[node] + step_cost +
                               cong_->node_cost(ni, ng.layer) + jitter(ni);
        if (epoch_mark_[ni] == epoch_ && gscore_[ni] <= ng_cost) return;
        epoch_mark_[ni] = epoch_;
        gscore_[ni] = ng_cost;
        parent_[ni] = static_cast<std::uint32_t>(node);
        heap_.emplace_back(ng_cost + heuristic(ng), ni);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        ++pushes;
      };
      const auto dir = preferred_[static_cast<std::size_t>(g.layer)];
      if (dir == netlist::Direction::Horizontal) {
        try_step({g.x - 1, g.y, g.layer}, 0.0);
        try_step({g.x + 1, g.y, g.layer}, 0.0);
      } else {
        try_step({g.x, g.y - 1, g.layer}, 0.0);
        try_step({g.x, g.y + 1, g.layer}, 0.0);
      }
      try_step({g.x, g.y, g.layer - 1}, opts_->via_cost);
      try_step({g.x, g.y, g.layer + 1}, opts_->via_cost);
    }

    // Clear target marks for the next search.
    for (const auto t : target_set_) target_mark_[t] = 0;
    target_set_.clear();
    ++work_.searches;
    work_.heap_pops += pops;
    work_.heap_pushes += pushes;
    return found;
  }

  const SearchWork& work() const { return work_; }

  /// Walk parents from `node` back to the search start.
  std::vector<std::size_t> backtrack(std::size_t node) const {
    std::vector<std::size_t> path{node};
    while (parent_[node] != node) {
      node = parent_[node];
      path.push_back(node);
    }
    return path;
  }

 private:
  /// Lower bound on the cost from `g` to the nearest target:
  ///   dx + dy + (via_cost + 1) * max(layer_gap, turn),
  /// with dx, dy, layer_gap the distances to the targets' bounding box and
  /// layer span, and turn = 1 when g's layer cannot move along the
  /// remaining offset (a horizontal layer with dy > 0, a vertical one with
  /// dx > 0). Admissible: reaching any target takes >= dx + dy lateral
  /// steps (cost >= 1 each) and >= max(layer_gap, turn) vias (cost >=
  /// via_cost + 1 each). Consistent: a lateral step changes only dx or dy,
  /// by at most 1; a via step changes max(layer_gap, turn) by at most 1.
  /// Takes the point, not the index: callers already hold the GridPoint,
  /// and the at() division is real money on every relaxation.
  double heuristic(const GridPoint& g) const {
    const int dx = std::max({0, tminx_ - g.x, g.x - tmaxx_});
    const int dy = std::max({0, tminy_ - g.y, g.y - tmaxy_});
    const int layer_gap = std::max({0, tminl_ - g.layer, g.layer - tmaxl_});
    const bool horizontal = preferred_[static_cast<std::size_t>(g.layer)] ==
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
  double via_lb_;  ///< lower bound on a via step's cost
  std::vector<double> gscore_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> epoch_mark_;
  std::vector<std::uint32_t> closed_mark_;
  std::vector<std::uint32_t> target_mark_;
  std::vector<std::uint32_t> tree_mark_;
  std::vector<std::size_t> target_set_;
  std::vector<std::pair<double, std::size_t>> heap_;  ///< (f, node) min-heap
  std::vector<netlist::Direction> preferred_;  ///< per-layer wire direction
  std::uint32_t epoch_ = 0;
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
  std::vector<std::size_t> order(tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto task_span = [&](const RouteTask& t) {
    util::Rect box = util::Rect::around(t.terminals.empty() ? Point{}
                                                            : t.terminals[0].pos);
    for (const auto& term : t.terminals) box.expand(term.pos);
    return box.half_perimeter();
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return task_span(tasks[a]) < task_span(tasks[b]);
  });

  // Per-net search windows: the terminal bbox inflated by bbox_margin, a
  // property of the problem, computed once up front.
  const util::GridRect grid_rect{0, 0, grid.nx() - 1, grid.ny() - 1};
  const std::int32_t margin =
      static_cast<std::int32_t>(std::max(0, opts_.bbox_margin));
  std::vector<util::GridRect> window(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    util::GridRect b;
    for (const auto& term : tasks[i].terminals) {
      const GridPoint g = grid.snap(term.pos, term.layer);
      b.expand(g.x, g.y);
    }
    if (b.empty()) b = util::GridRect::around(0, 0);
    window[i] = b.inflated(margin).clamped(grid_rect);
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
  // other net of the pass committed.
  auto route_pass = [&](const std::vector<std::size_t>& ripped) {
    for (const auto ti : ripped) route_one(ti, window[ti]);
    for (const auto ti : ripped) {
      if (state[ti].route.success) continue;
      for (const auto nidx : state[ti].nodes) cong.add_usage(nidx, -1);
      route_one(ti, grid_rect);
    }
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
    if (cong.count_overflow() == 0) break;
    cong.bump_history();
    cong.set_pressure(1.0 + static_cast<double>(pass));

    ripped.clear();
    cong.clear_usage();
    for (const auto ti : order) {
      TaskState& st = state[ti];
      bool rip = !st.route.success;
      if (!rip) {
        for (const auto nidx : st.nodes) {
          if (!cong.fits(nidx, grid.at(nidx).layer)) {
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
  result.stats.overflowed_gcells = cong.count_overflow();
  result.stats.searches = searcher.work().searches;
  result.stats.heap_pops = searcher.work().heap_pops;
  result.stats.heap_pushes = searcher.work().heap_pushes;
  return result;
}

}  // namespace sm::route
