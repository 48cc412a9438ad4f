#include "attack/mcmf.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace sm::attack {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

MinCostFlow::MinCostFlow(int num_nodes)
    : adj_(static_cast<std::size_t>(num_nodes)),
      pi_(static_cast<std::size_t>(num_nodes), 0.0),
      excess_(static_cast<std::size_t>(num_nodes), 0),
      dist_(static_cast<std::size_t>(num_nodes), kInf),
      prev_arc_(static_cast<std::size_t>(num_nodes), -1),
      scanned_(static_cast<std::size_t>(num_nodes), 0),
      cur_arc_(static_cast<std::size_t>(num_nodes), 0),
      on_path_(static_cast<std::size_t>(num_nodes), 0) {}

int MinCostFlow::add_edge(int from, int to, int capacity, double cost) {
  if (solved_)
    throw std::logic_error("MinCostFlow: add_edge() after solve()");
  if (capacity < 0)
    throw std::invalid_argument("MinCostFlow: negative capacity");
  if (!(cost >= 0))
    throw std::invalid_argument("MinCostFlow: cost must be non-negative");
  const int id = static_cast<int>(arcs_.size() / 2);
  arcs_.push_back({to, capacity, cost});
  arcs_.push_back({from, 0, -cost});
  adj_[static_cast<std::size_t>(from)].push_back(2 * id);
  adj_[static_cast<std::size_t>(to)].push_back(2 * id + 1);
  return id;
}

int MinCostFlow::flow_on(int id) const {
  // Residual of the reverse arc equals the pushed flow.
  return arcs_[static_cast<std::size_t>(2 * id + 1)].cap;
}

double MinCostFlow::cost() const {
  double total = 0;
  for (std::size_t a = 0; a + 1 < arcs_.size(); a += 2)
    total += static_cast<double>(arcs_[a + 1].cap) * arcs_[a].cost;
  return total;
}

template <class IsTarget>
int MinCostFlow::dijkstra(const int* sources, int num_sources,
                          IsTarget is_target, bool update_pi) {
  // Reset only what the previous search touched.
  for (const int v : touched_) {
    dist_[static_cast<std::size_t>(v)] = kInf;
    prev_arc_[static_cast<std::size_t>(v)] = -1;
    scanned_[static_cast<std::size_t>(v)] = 0;
  }
  touched_.clear();
  heap_.clear();

  // 4-ary min-heap over (dist, node): pair comparison breaks distance ties
  // toward the lower node index — the pinned cold==warm tie-break.
  const auto sift_up = [&](std::size_t i) {
    const auto item = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!(item < heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = item;
  };
  const auto sift_down = [&](std::size_t i) {
    const auto item = heap_[i];
    const std::size_t size = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= size) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, size);
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap_[c] < heap_[best]) best = c;
      if (!(heap_[best] < item)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = item;
  };
  const auto push = [&](double d, int v) {
    heap_.emplace_back(d, v);
    sift_up(heap_.size() - 1);
  };

  for (int i = 0; i < num_sources; ++i) {
    const int s = sources[i];
    dist_[static_cast<std::size_t>(s)] = 0.0;
    touched_.push_back(s);
    push(0.0, s);
  }

  int found = -1;
  while (!heap_.empty()) {
    const auto [d, u] = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    const auto su = static_cast<std::size_t>(u);
    if (scanned_[su] || d != dist_[su]) continue;  // stale heap entry
    scanned_[su] = 1;
    if (is_target(u)) {
      found = u;
      break;
    }
    for (const int a : adj_[su]) {
      const Arc& e = arcs_[static_cast<std::size_t>(a)];
      if (e.cap <= 0) continue;
      const auto sv = static_cast<std::size_t>(e.to);
      if (scanned_[sv]) continue;
      // Clamp: the potentials keep reduced costs >= 0 exactly in exact
      // arithmetic; floating-point pi updates can leave a -1e-16 residue
      // that would break Dijkstra's scanned-is-final property.
      const double rc = std::max(0.0, e.cost + pi_[su] - pi_[sv]);
      const double nd = d + rc;
      if (nd < dist_[sv]) {
        if (dist_[sv] == kInf) touched_.push_back(e.to);
        dist_[sv] = nd;
        prev_arc_[sv] = a;
        push(nd, e.to);
      }
    }
  }
  if (found < 0) return -1;
  if (update_pi) apply_potentials(found);
  return found;
}

void MinCostFlow::apply_potentials(int target) {
  // Shifted Johnson update: pi[v] += dist[v] - D for scanned nodes only.
  // It differs from the classic capped rule by a uniform -D on every node,
  // which cancels in every reduced cost — and costs O(scanned), not O(n).
  const double target_dist = dist_[static_cast<std::size_t>(target)];
  for (const int v : touched_) {
    const auto sv = static_cast<std::size_t>(v);
    if (scanned_[sv]) pi_[sv] += dist_[sv] - target_dist;
  }
}

int MinCostFlow::blocking_flow(int budget) {
  // Saturate every s->t path of the just-computed shortest length before
  // the potentials move. Admissible arcs are the ones Dijkstra's own
  // arithmetic would re-derive bit-for-bit (dist[u] + rc == dist[v] with
  // both endpoints scanned) — a sub-DAG of the true shortest-path DAG that
  // always contains the predecessor tree, so at least the tree path
  // augments; anything the bitwise test misses is picked up by the next
  // Dijkstra phase at the same distance. DFS with current-arc pointers
  // (Dinic): each retreat permanently advances a pointer, each augment
  // saturates an arc, so the walk is O(arcs + path lengths). on_path_
  // guards the zero-reduced-cost two-cycles a residual graph is full of.
  for (const int v : touched_) {
    cur_arc_[static_cast<std::size_t>(v)] = 0;
    on_path_[static_cast<std::size_t>(v)] = 0;
  }
  int total = 0;
  path_.clear();
  int u = s_;
  on_path_[static_cast<std::size_t>(s_)] = 1;
  while (total < budget) {
    const auto su = static_cast<std::size_t>(u);
    const auto& alist = adj_[su];
    int& ci = cur_arc_[su];
    bool advanced = false;
    while (ci < static_cast<int>(alist.size())) {
      const int a = alist[static_cast<std::size_t>(ci)];
      const Arc& e = arcs_[static_cast<std::size_t>(a)];
      const auto sv = static_cast<std::size_t>(e.to);
      if (e.cap > 0 && scanned_[sv] && !on_path_[sv]) {
        const double rc = std::max(0.0, e.cost + pi_[su] - pi_[sv]);
        if (dist_[su] + rc == dist_[sv]) {
          path_.push_back(a);
          on_path_[sv] = 1;
          u = e.to;
          advanced = true;
          break;
        }
      }
      ++ci;
    }
    if (advanced) {
      if (u != t_) continue;
      int push = budget - total;
      for (const int a : path_)
        push = std::min(push, arcs_[static_cast<std::size_t>(a)].cap);
      for (const int a : path_) {
        arcs_[static_cast<std::size_t>(a)].cap -= push;
        arcs_[static_cast<std::size_t>(a ^ 1)].cap += push;
        on_path_[static_cast<std::size_t>(
            arcs_[static_cast<std::size_t>(a)].to)] = 0;
      }
      total += push;
      path_.clear();
      u = s_;
      continue;
    }
    if (u == s_) break;  // source exhausted: no admissible path remains
    on_path_[su] = 0;
    const int a = path_.back();
    path_.pop_back();
    u = arcs_[static_cast<std::size_t>(a ^ 1)].to;
    ++cur_arc_[static_cast<std::size_t>(u)];  // skip the dead branch
  }
  on_path_[static_cast<std::size_t>(s_)] = 0;
  return total;
}

int MinCostFlow::augment(int target, int limit) {
  if (limit <= 0 || prev_arc_[static_cast<std::size_t>(target)] < 0) return 0;
  int push = limit;
  for (int a = prev_arc_[static_cast<std::size_t>(target)]; a >= 0;
       a = prev_arc_[static_cast<std::size_t>(arcs_[static_cast<std::size_t>(a ^ 1)].to)])
    push = std::min(push, arcs_[static_cast<std::size_t>(a)].cap);
  for (int a = prev_arc_[static_cast<std::size_t>(target)]; a >= 0;
       a = prev_arc_[static_cast<std::size_t>(arcs_[static_cast<std::size_t>(a ^ 1)].to)]) {
    arcs_[static_cast<std::size_t>(a)].cap -= push;
    arcs_[static_cast<std::size_t>(a ^ 1)].cap += push;
  }
  return push;
}

void MinCostFlow::normalize_terminals() {
  // Terminals may carry any net flow: an s imbalance just changes how much
  // the source emits, and a t imbalance is by definition a delivered-flow
  // change.
  excess_[static_cast<std::size_t>(s_)] = 0;
  flow_ += static_cast<int>(excess_[static_cast<std::size_t>(t_)]);
  excess_[static_cast<std::size_t>(t_)] = 0;
}

void MinCostFlow::repair_and_augment() {
  normalize_terminals();
  const int n = static_cast<int>(adj_.size());

  // 1) Route non-terminal excesses (ascending node order — part of the
  //    pinned determinism) to the nearest deficit, or t when under target,
  //    or back to s. Removals only ever leave an excess at the tail of a
  //    removed arc, and the reverse arcs of the flow that reached it lead
  //    back to s or to a deficit, so a target always exists. flow_ only
  //    falls on removals and each phase stops at the target, so it never
  //    exceeds target_.
  const auto drain_excess = [&](int u) {
    while (excess_[static_cast<std::size_t>(u)] > 0) {
      const bool room = flow_ < target_;
      const auto allowed = [&](int v) {
        if (v == s_) return true;
        if (v == t_) return room;
        return excess_[static_cast<std::size_t>(v)] < 0;
      };
      const int tgt = dijkstra(&u, 1, allowed);
      if (tgt < 0) throw std::logic_error("MinCostFlow: unroutable imbalance");
      long long limit = excess_[static_cast<std::size_t>(u)];
      if (tgt == t_)
        limit = std::min<long long>(limit, target_ - flow_);
      else if (tgt != s_)
        limit = std::min(limit, -excess_[static_cast<std::size_t>(tgt)]);
      const int pushed = augment(tgt, static_cast<int>(limit));
      if (pushed <= 0)
        throw std::logic_error("MinCostFlow: stalled imbalance repair");
      excess_[static_cast<std::size_t>(u)] -= pushed;
      if (tgt == t_)
        flow_ += pushed;
      else if (tgt != s_)
        excess_[static_cast<std::size_t>(tgt)] += pushed;
    }
  };
  for (int u = 0; u < n; ++u)
    if (u != s_ && u != t_) drain_excess(u);

  // 2) Fill the remaining deficits from whichever terminal is nearer in
  //    reduced cost: s supplies fresh flow, t cancels delivered flow.
  for (int v = 0; v < n; ++v) {
    if (v == s_ || v == t_) continue;
    while (excess_[static_cast<std::size_t>(v)] < 0) {
      const int sources[2] = {std::min(s_, t_), std::max(s_, t_)};
      const int tgt = dijkstra(sources, 2, [&](int x) { return x == v; });
      if (tgt < 0) throw std::logic_error("MinCostFlow: unroutable deficit");
      // The path's origin decides the flow accounting.
      int origin = v;
      while (prev_arc_[static_cast<std::size_t>(origin)] >= 0)
        origin = arcs_[static_cast<std::size_t>(
                           prev_arc_[static_cast<std::size_t>(origin)] ^ 1)]
                     .to;
      const int pushed = augment(
          v, static_cast<int>(-excess_[static_cast<std::size_t>(v)]));
      if (pushed <= 0)
        throw std::logic_error("MinCostFlow: stalled deficit repair");
      excess_[static_cast<std::size_t>(v)] += pushed;
      if (origin == t_) flow_ -= pushed;
    }
  }

  // 3) Augment toward the target, one *distance class* at a time: Dijkstra
  //    finds the current shortest s->t length (potentials deferred), a
  //    blocking flow saturates every admissible path of that length at
  //    once, then the potentials catch up. With tie-rich costs this is the
  //    Hopcroft-Karp phase structure (one Dijkstra routes many units); the
  //    attack's integer-exact salted costs make every path length unique,
  //    so each phase typically routes one unit — the win there is that the
  //    warm potentials keep each Dijkstra confined to a small frontier
  //    instead of rescanning the whole graph like SPFA did.
  while (flow_ < target_) {
    if (dijkstra(&s_, 1, [&](int x) { return x == t_; },
                 /*update_pi=*/false) < 0)
      break;
    const int pushed = blocking_flow(target_ - flow_);
    apply_potentials(t_);
    if (pushed <= 0) break;  // defensive: the tree path always admits one
    flow_ += pushed;
  }
}

std::pair<int, double> MinCostFlow::solve(int s, int t, int max_flow) {
  if (solved_) throw std::logic_error("MinCostFlow: solve() called twice");
  if (s == t) throw std::invalid_argument("MinCostFlow: s == t");
  // Flow leaving t could be stranded there by a later removal, pushing
  // the delivered flow past the target.
  for (const int a : adj_[static_cast<std::size_t>(t)])
    if ((a & 1) == 0)
      throw std::invalid_argument("MinCostFlow: an edge leaves t");
  s_ = s;
  t_ = t;
  target_ = max_flow;
  solved_ = true;
  repair_and_augment();
  return {flow_, cost()};
}

void MinCostFlow::remove_edge(int id) {
  if (!solved_)
    throw std::logic_error("MinCostFlow: remove_edge() before solve()");
  Arc& f = arcs_[static_cast<std::size_t>(2 * id)];
  Arc& r = arcs_[static_cast<std::size_t>(2 * id + 1)];
  // The flow stops here: the tail keeps receiving it (excess) and the head
  // keeps forwarding it (deficit) until resolve() re-routes both.
  excess_[static_cast<std::size_t>(r.to)] += r.cap;
  excess_[static_cast<std::size_t>(f.to)] -= r.cap;
  f.cap = 0;
  r.cap = 0;
}

std::pair<int, double> MinCostFlow::resolve() {
  if (!solved_)
    throw std::logic_error("MinCostFlow: resolve() before solve()");
  repair_and_augment();
  return {flow_, cost()};
}

}  // namespace sm::attack
