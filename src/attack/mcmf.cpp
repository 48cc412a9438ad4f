#include "attack/mcmf.hpp"

#include "util/radix_queue.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace sm::attack {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

/// Both queues below hold non-negative keys (distances, marginal costs) and
/// pop in (key, node) order.
void push(util::RadixQueue& q, std::int64_t key, int node) {
  q.push(static_cast<std::uint64_t>(key), static_cast<std::uint32_t>(node));
}
}  // namespace

std::vector<int> min_cost_matching(std::size_t sinks,
                                   const std::vector<int>& capacity,
                                   const std::vector<Candidate>& candidates) {
  // Node and candidate ids are ints, and t takes the id after the drivers.
  constexpr auto kMaxIndex =
      static_cast<std::size_t>(std::numeric_limits<int>::max() - 1);
  if (sinks > kMaxIndex || capacity.size() > kMaxIndex - sinks ||
      candidates.size() > kMaxIndex)
    throw std::invalid_argument("min_cost_matching: network too large");
  const int ns = static_cast<int>(sinks);
  const int nd = static_cast<int>(capacity.size());
  for (const int c : capacity)
    if (c < 0)
      throw std::invalid_argument("min_cost_matching: negative capacity");
  for (const Candidate& c : candidates) {
    if (c.sink < 0 || c.sink >= ns || c.driver < 0 || c.driver >= nd)
      throw std::invalid_argument("min_cost_matching: candidate out of range");
    if (c.cost < 0)
      throw std::invalid_argument("min_cost_matching: negative cost");
  }

  // Sink s's candidates, in input order: of_sink[first[s] .. first[s + 1]).
  std::vector<int> first(sinks + 1, 0);
  for (const Candidate& c : candidates) ++first[c.sink + 1];
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<int> of_sink(candidates.size());
  std::vector<int> fill(first.begin(), first.end() - 1);
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i)
    of_sink[fill[candidates[i].sink]++] = i;

  // Nodes: sinks [0, ns), drivers [ns, ns + nd), then t. The residual arcs
  // are sink -> driver for each candidate the sink does not hold, driver ->
  // sink for each one it does (at minus the cost), and driver -> t while
  // the driver has room. t is only ever a target.
  const int t = ns + nd;
  std::vector<int> match(sinks, -1);  // the candidate each sink holds
  std::vector<std::vector<int>> held(capacity.size());  // per driver
  std::vector<int> room = capacity;
  // Potentials keep every residual reduced cost cost + pi[u] - pi[v] >= 0.
  // All costs start non-negative, so 0 is feasible; pi[t] stays 0.
  std::vector<std::int64_t> pi(static_cast<std::size_t>(t) + 1, 0);

  // Dijkstra scratch, reset sparsely through `touched`. via[] is the
  // candidate a sink or driver was reached over, and for t the driver.
  std::vector<std::int64_t> dist(pi.size(), kInf);
  std::vector<int> via(pi.size(), -1);
  std::vector<char> scanned(pi.size(), 0);
  std::vector<int> touched;
  util::RadixQueue frontier;

  // Shortest reduced-cost path from sink `s` to t; kInf when there is none.
  // On success every scanned node takes pi += dist - D, which keeps the
  // reduced costs non-negative and pi[t] at 0.
  const auto search = [&](int s) {
    for (const int v : touched) {
      dist[v] = kInf;
      scanned[v] = 0;
    }
    touched.clear();
    frontier.clear();
    const auto relax = [&](int v, std::int64_t d, std::int64_t rc, int from) {
      if (rc < 0)
        throw std::logic_error("min_cost_matching: negative reduced cost");
      if (d + rc >= dist[v]) return;
      if (dist[v] == kInf) touched.push_back(v);
      dist[v] = d + rc;
      via[v] = from;
      push(frontier, d + rc, v);
    };
    dist[s] = 0;
    touched.push_back(s);
    push(frontier, 0, s);
    while (!frontier.empty()) {
      const int u = static_cast<int>(frontier.pop());
      if (scanned[u]) continue;  // stale entry
      scanned[u] = 1;
      const std::int64_t d = dist[u];  // a node's first pop is its distance
      if (u == t) {
        for (const int v : touched)
          if (scanned[v]) pi[v] += dist[v] - d;
        return d;
      }
      if (u < ns) {
        for (int k = first[u]; k < first[u + 1]; ++k) {
          const int i = of_sink[k];
          if (i == match[u]) continue;
          const int v = ns + candidates[i].driver;
          relax(v, d, candidates[i].cost + pi[u] - pi[v], i);
        }
      } else {
        if (room[u - ns] > 0) relax(t, d, pi[u], u);
        for (const int i : held[u - ns]) {
          const int v = candidates[i].sink;
          relax(v, d, pi[u] - pi[v] - candidates[i].cost, i);
        }
      }
    }
    return kInf;
  };

  // Flip the arcs of the path search() just found: the sink at its head
  // takes a candidate, every sink along it moves to the next driver, and
  // the driver before t uses one unit of room.
  const auto augment = [&] {
    int v = via[t];
    --room[v - ns];
    for (;;) {
      const int i = via[v];
      const int u = candidates[i].sink;
      const int old = match[u];
      match[u] = i;
      held[v - ns].push_back(i);
      if (old < 0) return;
      v = ns + candidates[old].driver;
      auto& list = held[v - ns];
      *std::find(list.begin(), list.end(), old) = list.back();
      list.pop_back();
    }
  };

  // Lazy order: each key is a lower bound on its sink's marginal cost,
  // starting at the sink's cheapest candidate.
  util::RadixQueue queue;
  for (int s = 0; s < ns; ++s) {
    std::int64_t key = kInf;
    for (int k = first[s]; k < first[s + 1]; ++k)
      key = std::min(key, candidates[of_sink[k]].cost);
    if (key != kInf) push(queue, key, s);
  }
  while (!queue.empty()) {
    const int s = static_cast<int>(queue.pop());
    const std::int64_t before = pi[s];
    const std::int64_t d = search(s);
    if (d == kInf) continue;  // unmatchable now, so unmatchable for good
    const std::int64_t marginal = d - before;
    if (!queue.empty() &&
        marginal > static_cast<std::int64_t>(queue.min_key()))
      push(queue, marginal, s);
    else
      augment();
  }
  return match;
}

}  // namespace sm::attack
