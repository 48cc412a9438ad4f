// Combinational equivalence checking (the Formality substitute).
//
// The paper validates restored functionality with Synopsys Formality. This
// module implements a layered checker:
//   1. structural hashing — canonical classes over both netlists; equal
//      classes on every observer prove equivalence instantly (this closes
//      the common case: a restored netlist is structurally the original,
//      and a buffer takes its input's class, so repeaters do not count);
//   2. random simulation — 64-wide patterns find counterexamples fast on
//      inequivalent pairs (an erroneous netlist with OER ~100% falls here
//      within one word);
//   3. CDCL SAT on the miter — complete decision procedure, with a conflict
//      budget so pathological instances return Unknown instead of hanging.
//
// Sequential netlists are compared on the standard combinational core: DFF
// outputs are free inputs, DFF inputs are observed outputs.
#pragma once

#include "netlist/netlist.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace sm::core {

enum class EquivVerdict { Equivalent, Inequivalent, Unknown };

struct EquivOptions {
  std::size_t sim_patterns = 4096;
  std::uint64_t seed = 1;
};

struct EquivResult {
  EquivVerdict verdict = EquivVerdict::Unknown;
  std::string method;  ///< "structural", "simulation", or "sat"
  /// For Inequivalent: one distinguishing input assignment, one bit per
  /// source (primary inputs first, then DFF outputs in id order).
  std::vector<bool> counterexample;
  std::int64_t sat_conflicts = 0;
};

/// Check combinational equivalence of `a` and `b`. Requires matching source
/// and observer counts (throws std::invalid_argument otherwise).
EquivResult check_equivalence(const netlist::Netlist& a,
                              const netlist::Netlist& b,
                              const EquivOptions& opts = {});

/// Validate a counterexample: true iff the assignment produces different
/// observer values on `a` vs `b` (used by tests and callers for defense in
/// depth).
bool counterexample_distinguishes(const netlist::Netlist& a,
                                  const netlist::Netlist& b,
                                  const std::vector<bool>& assignment);

}  // namespace sm::core
