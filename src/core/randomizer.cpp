#include "core/randomizer.hpp"

#include "netlist/topo.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace sm::core {

using netlist::CellId;
using netlist::kInvalidNet;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sink;

namespace {

/// A swap gives up after this many rejected candidate pairs.
constexpr int kMaxAttemptsFactor = 200;

}  // namespace

std::vector<NetId> SwapLedger::protected_nets() const {
  std::vector<NetId> nets;
  for (const auto& e : entries) {
    nets.push_back(e.net_a);
    nets.push_back(e.net_b);
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

std::vector<std::pair<NetId, Sink>> SwapLedger::true_connections() const {
  // Replaying forward, remember the first net each sink was seen on — that
  // is its true (original) source regardless of later re-swaps.
  std::map<std::pair<CellId, int>, NetId> first_net;
  for (const auto& e : entries) {
    first_net.emplace(std::make_pair(e.sink_a.cell, e.sink_a.pin), e.net_a);
    first_net.emplace(std::make_pair(e.sink_b.cell, e.sink_b.pin), e.net_b);
  }
  std::vector<std::pair<NetId, Sink>> out;
  out.reserve(first_net.size());
  for (const auto& [key, net] : first_net)
    out.push_back({net, Sink{key.first, key.second}});
  return out;
}

RandomizeResult randomize(const Netlist& original,
                          const RandomizeOptions& opts) {
  RandomizeResult result{original.clone(), {}, 0.0, 0.0, 0};
  Netlist& nl = result.erroneous;
  util::Rng rng(opts.seed ^ 0xbe01be01ULL);

  // Candidate sinks: input pins of gates and POs whose driver is a real
  // signal. Exclude DFF clocks (none modeled) — every pin is fair game, as
  // long as acyclicity holds.
  struct Candidate {
    NetId net;
    Sink sink;
  };
  auto collect_candidates = [&]() {
    std::vector<Candidate> cands;
    for (NetId n = 0; n < nl.num_nets(); ++n)
      for (const auto& s : nl.net(n).sinks) cands.push_back({n, s});
    return cands;
  };

  // The erroneous netlist's edges in a dynamic topological order, which
  // answers each swap's loop checks; accepted swaps are mirrored on it.
  netlist::DynamicTopoOrder order(nl);
  for (NetId n = 0; n < nl.num_nets(); ++n)
    for (const auto& s : nl.net(n).sinks)
      order.add_edge(nl.net(n).driver, s.cell);
  const auto reconnect = [&](const Sink& s, NetId from, NetId to) {
    nl.reconnect_sink(s.cell, s.pin, to);
    order.remove_edge(nl.net(from).driver, s.cell);
    order.add_edge(nl.net(to).driver, s.cell);
  };

  const auto try_one_swap = [&]() -> bool {
    const auto cands = collect_candidates();
    if (cands.size() < 2) return false;
    const std::size_t max_attempts =
        static_cast<std::size_t>(kMaxAttemptsFactor);
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      const auto& a = cands[static_cast<std::size_t>(rng.below(cands.size()))];
      const auto& b = cands[static_cast<std::size_t>(rng.below(cands.size()))];
      if (a.net == b.net) continue;
      if (a.sink == b.sink) continue;
      // A re-swapped sink must never land back on its true source — that
      // connection would not be erroneous and would hand the attacker a
      // correct recovery for free.
      if (original.cell(a.sink.cell).inputs.at(
              static_cast<std::size_t>(a.sink.pin)) == b.net)
        continue;
      if (original.cell(b.sink.cell).inputs.at(
              static_cast<std::size_t>(b.sink.pin)) == a.net)
        continue;
      // Swapping must change functionality locally: the sinks must not end
      // up on a net they are already attached to.
      const CellId drv_a = nl.net(a.net).driver;
      const CellId drv_b = nl.net(b.net).driver;
      // Loop checks: b.net's driver will feed a.sink's cell and vice versa.
      if (order.would_loop(drv_b, a.sink.cell)) continue;
      if (order.would_loop(drv_a, b.sink.cell)) continue;
      reconnect(a.sink, a.net, b.net);
      reconnect(b.sink, b.net, a.net);
      result.ledger.entries.push_back({a.net, a.sink, b.net, b.sink});
      return true;
    }
    return false;
  };

  // OER saturates at 1 - 2^-observers (the probability that a random pattern
  // leaves every observer bit accidentally correct), so an absolute target
  // like 0.995 is unreachable for circuits with few outputs. Track a plateau:
  // once OER is high and stops improving, "approaching 100%" is achieved.
  double best_oer = 0.0;
  int stalled_checks = 0;
  const std::size_t min_swaps =
      opts.min_swaps != 0
          ? opts.min_swaps
          : std::max<std::size_t>(8, original.num_gates() / 30);
  while (result.ledger.entries.size() < opts.max_swaps) {
    bool progressed = false;
    for (std::size_t i = 0; i < opts.batch; ++i)
      if (try_one_swap()) progressed = true;
    if (!progressed) break;  // no legal swaps remain
    result.swaps = result.ledger.entries.size();
    if (result.swaps < min_swaps) continue;
    const auto rates =
        sim::compare(original, nl, opts.check_patterns, opts.seed ^ 0x5132ULL);
    result.oer = rates.oer;
    result.hd = rates.hd;
    if (rates.oer >= opts.target_oer) break;
    if (rates.oer > best_oer + 5e-4) {
      best_oer = rates.oer;
      stalled_checks = 0;
    } else if (opts.target_oer <= 1.0 && rates.oer >= 0.98 &&
               ++stalled_checks >= 3) {
      break;  // high OER and three checks without improvement: saturated
    }
  }
  // Final measurement if the loop exited without one.
  if (result.swaps != 0 && result.hd == 0.0) {
    const auto rates =
        sim::compare(original, nl, opts.check_patterns, opts.seed ^ 0x5132ULL);
    result.oer = rates.oer;
    result.hd = rates.hd;
  }
  result.swaps = result.ledger.entries.size();
  nl.validate();
  if (!netlist::is_acyclic(nl))
    throw std::logic_error("randomize: produced a cyclic netlist");
  return result;
}

void restore_netlist(Netlist& erroneous, const SwapLedger& ledger) {
  for (std::size_t i = ledger.entries.size(); i-- > 0;) {
    const SwapEntry& e = ledger.entries[i];
    erroneous.reconnect_sink(e.sink_a.cell, e.sink_a.pin, e.net_a);
    erroneous.reconnect_sink(e.sink_b.cell, e.sink_b.pin, e.net_b);
  }
  erroneous.validate();
}

}  // namespace sm::core
