// Exact min-cost maximum b-matching: the matching engine of the network-flow
// proximity attack (Wang et al. [5]). Sink fragments take at most one
// candidate driver fragment each, a driver takes at most its load budget of
// sinks, and among the matchings of maximum size the one of least total
// cost wins — the min-cost maximum flow of the attack's network.
//
// It is successive shortest paths without a super source: the residual
// graph holds only sinks, drivers and the target t, each Dijkstra starts at
// one sink, and the sinks are served in lazy order of their marginal cost.
// A sink's marginal cost never falls as other sinks are matched, so a stale
// key is a lower bound, and the sink served is always one a super-source
// search would have reached first. ARCHITECTURE.md, "Matching exactness
// contract", gives the argument; tests/test_mcmf.cpp checks it against a
// textbook Bellman-Ford reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sm::attack {

/// One arc of the matching network: `sink` may take `driver` at `cost`.
struct Candidate {
  int sink = 0;
  int driver = 0;
  std::int64_t cost = 0;
};

/// Each sink in [0, sinks) takes at most one candidate, and driver d is
/// taken at most capacity[d] times. Returns, per sink, the index of its
/// candidate in a min-cost maximum matching, or -1 for a sink left
/// unmatched. The same sink and driver may appear in several candidates.
/// Holds no state between calls. Throws std::invalid_argument on a
/// negative cost or capacity, or a candidate naming a sink or driver out of
/// range.
std::vector<int> min_cost_matching(std::size_t sinks,
                                   const std::vector<int>& capacity,
                                   const std::vector<Candidate>& candidates);

}  // namespace sm::attack
