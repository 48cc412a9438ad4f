// The end-to-end protection flow (paper Fig. 2) and its baselines.
//
// protect():
//   1. randomize the netlist (driver/sink swaps, no combinational loops,
//      OER-driven stop);
//   2. place the erroneous netlist;
//   3. embed correction cells (pins in M6/M8, overlap-legal) and lift the
//      protected nets to the correction layer;
//   4. route everything — the FEOL now encodes only the erroneous netlist;
//   5. restore the true functionality with BEOL wires between correction
//      cell pairs; validate functional equivalence at the netlist level;
//   6. report the restored design's PPA.
//
// layout_original() and layout_naive_lift() produce the paper's two
// comparison layouts (Tables 1-3, Fig. 4-5 all compare the three).
#pragma once

#include "core/correction.hpp"
#include "core/randomizer.hpp"
#include "place/buffering.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "timing/sta.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace sm::core {

/// Stimuli behind the power activities (sim::toggle_rates).
inline constexpr std::size_t kActivityPatterns = 4096;

struct FlowOptions {
  place::PlacerOptions placer;
  /// Every router setting but the gcell: the flow sizes the gcell from the
  /// die itself (core::route_step), so router.gcell_um reaches no layout.
  route::RouterOptions router;
  int lift_layer = 6;  ///< correction-cell pin layer (M6 ISCAS, M8 superblue)
  std::uint64_t seed = 1;
  /// Post-placement repeater insertion (drive-strength fixing). On the
  /// erroneous netlist this bakes misleading buffer strengths into the FEOL
  /// (paper Sec. 3's BUFX8 argument). Off by default so cell counts stay
  /// comparable across flows; bench_ablation_buffering exercises it.
  bool buffering = false;
  place::BufferingOptions buffering_opts;
};

/// A placed-and-routed design with its PPA.
struct LayoutResult {
  place::Placement placement;
  std::vector<route::RouteTask> tasks;  ///< net tasks first
  std::size_t num_net_tasks = 0;        ///< tasks beyond this are BEOL wires
  route::RoutingResult routing;
  timing::PpaReport ppa;
  /// When FlowOptions::buffering ran, the repeater-sized netlist the layout
  /// actually implements (route net ids refer to it). Absent otherwise.
  std::optional<netlist::Netlist> sized_netlist;

  /// The netlist this layout physically realizes.
  const netlist::Netlist& physical(const netlist::Netlist& logical) const {
    return sized_netlist ? *sized_netlist : logical;
  }
};

/// Unprotected reference layout of a netlist.
LayoutResult layout_original(const netlist::Netlist& nl,
                             const FlowOptions& opts);

/// Naive-lifting baseline: same lifting mechanics over `nets` (typically the
/// protected nets of a matching protect() run), no erroneous connections.
/// Places with place::Placer alone, so FlowOptions::buffering does not
/// apply; no caller buffers a naive-lift layout.
struct NaiveLiftDesign {
  LayoutResult layout;
  CorrectionPlan plan;
};
NaiveLiftDesign layout_naive_lift(const netlist::Netlist& nl,
                                  const std::vector<netlist::NetId>& nets,
                                  const FlowOptions& opts);

/// The proposed scheme's output.
struct ProtectedDesign {
  netlist::Netlist erroneous;  ///< what the FEOL fab sees (netlist level)
  /// The netlist the finished (BEOL-restored) chip implements: true
  /// connectivity, including any repeaters the sizing pass added. Equals
  /// the original netlist functionally; shares the erroneous netlist's
  /// cell/net id space (useful as attack ground truth under buffering).
  netlist::Netlist restored;
  SwapLedger ledger;
  CorrectionPlan plan;
  LayoutResult layout;  ///< fabricated layout: erroneous nets + BEOL wires
  double oer = 0.0;     ///< erroneous vs original
  double hd = 0.0;
  bool restored_ok = false;  ///< netlist-level restoration equivalence check
};

ProtectedDesign protect(const netlist::Netlist& original,
                        const RandomizeOptions& rand_opts,
                        const FlowOptions& opts);

/// PPA-budget loop (paper: keep adding randomization while the budget is
/// not expended). Doubles the swap budget until power or delay overhead vs
/// `reference` exceeds `budget_pct`, returning the most-randomized design
/// within budget (or the first attempt if even it overshoots).
ProtectedDesign protect_with_budget(const netlist::Netlist& original,
                                    RandomizeOptions rand_opts,
                                    const FlowOptions& opts,
                                    const timing::PpaReport& reference,
                                    double budget_pct, int max_rounds = 4);

}  // namespace sm::core
