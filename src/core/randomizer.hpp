// Netlist randomization (paper Sec. 4, step (i)).
//
// The defense iteratively swaps the connectivity of randomly selected pairs
// of drivers and their sinks: after a swap of (D1->S1, D2->S2), the netlist
// contains (D1->S2, D2->S1). Swaps that would create a combinational loop
// are rejected (loops would reveal the modification to an attacker). Swapping
// continues until the output error rate of the erroneous netlist against the
// original approaches 100%, so the modified netlist produces errors for
// essentially any input.
//
// The ledger records every swap so the true functionality can be restored —
// in the real flow through BEOL re-routing between correction-cell pairs, in
// this model additionally at the netlist level for validation.
#pragma once

#include "netlist/netlist.hpp"

#include <cstdint>
#include <vector>

namespace sm::core {

/// One committed swap. Both sinks are identified by (cell, pin); net_a/net_b
/// are the nets each sink was attached to *before* the swap (sink_a on
/// net_a, sink_b on net_b; afterwards sink_a is on net_b and vice versa).
struct SwapEntry {
  netlist::NetId net_a = netlist::kInvalidNet;
  netlist::Sink sink_a;
  netlist::NetId net_b = netlist::kInvalidNet;
  netlist::Sink sink_b;
};

struct SwapLedger {
  std::vector<SwapEntry> entries;

  /// All nets touched by any swap, deduplicated — these are the "protected
  /// nets" that get correction cells and lifting.
  std::vector<netlist::NetId> protected_nets() const;

  /// The original (driver net -> sink) connections broken by the swaps:
  /// exactly the connections an attacker must recover. Accounts for sinks
  /// swapped multiple times (the *first* recorded net is the true source).
  std::vector<std::pair<netlist::NetId, netlist::Sink>> true_connections() const;
};

struct RandomizeOptions {
  double target_oer = 0.995;       ///< stop once OER reaches this
  std::size_t max_swaps = 10000;   ///< hard cap (PPA budget proxy)
  /// Minimum number of swaps. 0 = auto: max(8, gates/30). The OER criterion
  /// alone saturates after a handful of swaps on error-amplifying logic,
  /// but the paper keeps randomizing while the PPA budget allows — heavier
  /// randomization is what drives the attacker's CCR to zero.
  std::size_t min_swaps = 0;
  std::size_t batch = 4;           ///< swaps between OER evaluations
  std::size_t check_patterns = 4096;
  std::uint64_t seed = 1;
};

struct RandomizeResult {
  netlist::Netlist erroneous;   ///< the randomized netlist
  SwapLedger ledger;
  double oer = 0.0;             ///< final OER vs the original
  double hd = 0.0;              ///< final HD vs the original
  std::size_t swaps = 0;
};

/// Randomize a copy of `original`. Deterministic in (netlist, options).
RandomizeResult randomize(const netlist::Netlist& original,
                          const RandomizeOptions& opts);

/// Undo all ledger swaps on `erroneous` (BEOL restoration at netlist level).
/// After this the netlist is functionally identical to the original.
void restore_netlist(netlist::Netlist& erroneous, const SwapLedger& ledger);

}  // namespace sm::core
