// Min-cost max-flow via successive shortest paths over Johnson-reduced
// costs (Dijkstra on a 4-ary heap), used by the network-flow proximity
// attack to assign sink fragments to driver fragments at least total cost —
// the formulation of Wang et al. [5].
//
// This replaces the original SPFA solver, which re-scanned the whole
// residual graph per augmentation. With node potentials every residual arc
// keeps a non-negative reduced cost, so each augmentation is one
// early-terminating Dijkstra — and on the attack's assignment-shaped
// network (all source arcs cost 0) the solver routes each unit from its
// source arc head directly, exploring only the local candidate
// neighborhood instead of the full graph.
//
// The API is the attack's loop repair and nothing more: edges of
// non-negative cost are added, solve() runs once, then any number of
// remove_edge() + resolve() rounds follow. resolve() repairs the flow
// *warm* — only the imbalances the removals created are re-routed, and the
// potentials carry over. Cold solves of the same final network and warm
// repairs produce identical assignments (not merely equal cost): every
// shortest-path search breaks distance ties on the lowest node index,
// relaxes arcs in insertion (edge-id) order, and replaces a predecessor
// only on strict improvement, so the optimum reached is pinned as long as
// it is unique. The contract is documented in ARCHITECTURE.md, "MCMF
// warm-start contract", and enforced by the randomized cold-vs-warm harness
// in tests/test_mcmf.cpp plus the real attack rigs in tests/test_attack.cpp.
#pragma once

#include <utility>
#include <vector>

namespace sm::attack {

class MinCostFlow {
 public:
  explicit MinCostFlow(int num_nodes);

  /// Add a directed edge with capacity and cost; returns the edge id.
  /// Edges are added before solve(): throws std::logic_error after it, and
  /// std::invalid_argument on a negative capacity or cost.
  int add_edge(int from, int to, int capacity, double cost);

  /// Send up to `max_flow` units from s to t at least total cost; returns
  /// the (flow, cost). Runs once per solver: a second call throws
  /// std::logic_error. t only absorbs: an edge leaving it (or s == t)
  /// throws std::invalid_argument.
  std::pair<int, double> solve(int s, int t, int max_flow);

  /// Flow currently on edge `id` (forward direction).
  int flow_on(int id) const;

  /// Drop edge `id` after solve() (std::logic_error before it): its
  /// capacity becomes 0, and the flow it carried becomes an excess at its
  /// tail and a deficit at its head that the next resolve() re-routes.
  void remove_edge(int id);

  /// Repair all outstanding imbalances along shortest reduced-cost paths
  /// and re-augment toward the solve() target; returns the total (flow,
  /// cost), identical to a cold solve of the network without the removed
  /// edges.
  std::pair<int, double> resolve();

  int flow() const { return flow_; }
  double cost() const;  ///< Σ flow·cost over edges, recomputed exactly

 private:
  /// One residual arc; arcs_[2*id] is edge id's forward arc, arcs_[2*id+1]
  /// its reverse (so `a ^ 1` pairs them and arcs_[a ^ 1].to is a's tail).
  struct Arc {
    int to;
    int cap;  ///< residual capacity (reverse arc's cap == pushed flow)
    double cost;
  };

  /// Dijkstra over reduced costs from `sources` until a node satisfying
  /// `is_target` pops (first pop = smallest (dist, node) — the pinned
  /// tie-break). Returns that node or -1. On success (unless the caller
  /// defers it for a blocking phase) applies apply_potentials(found).
  template <class IsTarget>
  int dijkstra(const int* sources, int num_sources, IsTarget is_target,
               bool update_pi = true);
  /// Shifted Johnson update over the last search: pi[v] += dist[v] -
  /// dist[target] for scanned nodes — a uniform offset of the classic
  /// capped rule (offsets cancel in every reduced cost), keeping the
  /// update O(scanned) instead of O(nodes).
  void apply_potentials(int target);
  /// Dinic-style blocking flow over the last search's bitwise shortest-
  /// path DAG (arcs with dist[u] + rc == dist[v], both endpoints scanned):
  /// saturates every admissible s->t path of the current shortest length
  /// at once, up to `budget` units. Runs BEFORE apply_potentials (the
  /// admissibility test needs the pre-update potentials). Returns the
  /// units pushed. This is the Hopcroft-Karp-style phase structure that
  /// makes assignment-shaped networks cheap: one Dijkstra per distinct
  /// path length instead of one per unit.
  int blocking_flow(int budget);
  /// Push up to `limit` units along prev_arc_ into `target`; returns the
  /// amount pushed (path bottleneck).
  int augment(int target, int limit);
  /// Fold s/t imbalances into flow_ (terminals are allowed any net flow).
  void normalize_terminals();
  /// Route non-terminal excesses/deficits, then re-augment to target_.
  void repair_and_augment();

  std::vector<Arc> arcs_;
  std::vector<std::vector<int>> adj_;  ///< node -> arc ids, insertion order
  std::vector<double> pi_;             ///< Johnson potentials
  std::vector<long long> excess_;      ///< >0 surplus inflow, <0 deficit
  int s_ = -1, t_ = -1;
  int target_ = 0;  ///< the solve() budget
  int flow_ = 0;    ///< units currently delivered to t_
  bool solved_ = false;

  // Dijkstra scratch, reset sparsely via touched_.
  std::vector<double> dist_;
  std::vector<int> prev_arc_;
  std::vector<char> scanned_;
  std::vector<int> touched_;
  std::vector<std::pair<double, int>> heap_;

  // blocking_flow() scratch (current-arc pointers, DFS path, cycle guard).
  std::vector<int> cur_arc_;
  std::vector<char> on_path_;
  std::vector<int> path_;
};

}  // namespace sm::attack
