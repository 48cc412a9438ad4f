// Network-flow proximity attack (Wang et al., DAC'16 [5]).
//
// The attacker holds the FEOL: all gates, and every net fragment routed at
// or below the split layer. Cut nets leave open driver fragments (containing
// the driving cell) and open sink fragments (containing input pins). The
// attack matches sink fragments to driver fragments using the published
// hints:
//   (i)  physical proximity of the dangling vpins,
//   (ii) avoidance of combinational loops in the hypothesis netlist,
//   (iii) load-capacitance constraints per driver strength,
//   (iv) direction of the dangling wires at the split layer.
// Matching is the paper's network-flow formulation: a min-cost maximum
// b-matching (attack/mcmf) of sink fragments to candidate drivers
// (capacity = load budget) picks the least-total-cost assignment; loop
// repair removes the candidates that would close a combinational cycle and
// solves again, cold, until the assignment stands.
// Every sink is eventually connected (falling back to the nearest loop-free
// driver), so the recovered netlist is complete and simulable — exactly
// what the CCR/OER/HD metrics need.
//
// Scoring is against the true (original) netlist: CCR is the fraction of
// recovered connections that match it; OER/HD are measured by simulating
// the recovered netlist against the original.
//
// Scale: candidate generation ranks driver fragments per sink through a
// util::GridIndex over the driver fragments' vpins (expanding-ring queries
// with an exact pair_cost lower bound), turning the O(ns*nd) all-pairs scan
// into O(ns*k) for large instances. Metrics are bit-identical for indexed
// vs brute-force candidate generation. The attack runs on the calling
// thread; parallelism lives one level up, one sweep cell per worker.
#pragma once

#include "core/randomizer.hpp"
#include "core/split.hpp"
#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "sim/simulator.hpp"

#include <cstdint>
#include <optional>

namespace sm::attack {

struct ProximityOptions {
  int candidates_per_sink = 16;   ///< nearest driver fragments considered
  double direction_bonus = 0.75;  ///< cost factor when dangling wires align
  /// Drive-strength prior (paper Sec. 3's BUFX8 argument): a strong driver
  /// "should" reach a distant sink, a weak one a nearby sink; candidates
  /// violating the prior cost more. The expected reach is 180 um over the
  /// driver's resistance in kOhm, and the cost grows by 0.4 per unit of
  /// log-distance mismatch, capped at 2. Off by default — it only bites
  /// when the layout ran drive-strength fixing (FlowOptions::buffering),
  /// and on the erroneous netlist it actively misleads, which is the
  /// paper's point.
  bool use_strength_prior = false;
  double load_budget_ff_per_ks = 220.0;  ///< load budget = this / drive_res
  bool use_loops = true;
  bool use_direction = true;
  bool use_load = true;
  std::size_t eval_patterns = 100000;  ///< for OER/HD of the recovered netlist
  std::uint64_t seed = 7;
  /// Build the spatial vpin index when at least this many open driver
  /// fragments exist; below it (or when a direction_bonus below ~0.3 voids
  /// the index's cost lower bound) candidates come from the brute-force scan.
  /// Both paths rank by (pair_cost, driver index) and return identical
  /// candidate sets — the index only skips provably-too-far drivers.
  int index_min_drivers = 64;
  double index_target_per_cell = 4.0;  ///< bucket occupancy of the index
  /// Keep the recovered netlist in ProximityResult::recovered. Off by
  /// default (a full netlist clone per attack is pure overhead for metric
  /// sweeps); the SAT-equivalence attacker turns it on to feed
  /// core::check_equivalence.
  bool keep_recovered = false;
};

struct ProximityResult {
  std::size_t open_sinks = 0;      ///< sink pins the attacker had to connect
  /// Open sink pins the main matching connected; the completion repair
  /// connects the rest and adds nothing here.
  std::size_t matched = 0;
  std::size_t correct = 0;         ///< equal to the original netlist
  std::size_t protected_total = 0; ///< swapped (randomized) sink pins seen
  std::size_t protected_correct = 0;
  sim::ErrorRates rates;           ///< recovered vs original
  /// The attacker's completed netlist, populated only when
  /// ProximityOptions::keep_recovered is set.
  std::optional<netlist::Netlist> recovered;

  double ccr() const {
    return open_sinks == 0 ? 1.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(open_sinks);
  }
  /// CCR restricted to the connections the defense randomized.
  double ccr_protected() const {
    return protected_total == 0
               ? ccr()
               : static_cast<double>(protected_correct) /
                     static_cast<double>(protected_total);
  }
};

/// Run the attack. `feol` is the netlist the FEOL implements (erroneous for
/// the proposed defense / pin swapping, the original otherwise); `original`
/// is ground truth. `ledger` (optional) marks the protected connections for
/// the CCR-protected accounting.
ProximityResult proximity_attack(const netlist::Netlist& feol,
                                 const netlist::Netlist& original,
                                 const place::Placement& pl,
                                 const core::SplitView& view,
                                 const core::SwapLedger* ledger,
                                 const ProximityOptions& opts = {});

}  // namespace sm::attack
