// Static timing analysis and power estimation.
//
// Substitutes for the paper's Cadence Innovus PPA reports (slow corner,
// 0.95 V). Delay model: cell delay = intrinsic + drive_res * load; wire
// delay = lumped Elmore (Rw * (Cw/2 + Csinks)). Dynamic power uses per-net
// switching activities measured by sm::sim; leakage is summed per cell.
// Linear models are sufficient because the paper's Fig. 6 compares
// *relative* overheads (protected vs original layout), not absolute signoff
// numbers.
#pragma once

#include "netlist/netlist.hpp"
#include "place/placement.hpp"
#include "route/router.hpp"

#include <vector>

namespace sm::timing {

/// Lumped electrical model of one routed net.
struct NetParasitics {
  double cap_ff = 0.0;
  double res_kohm = 0.0;
};

/// Wire + via RC of one route: each segment's length on its layer, and
/// each via per layer boundary it crosses, on a grid of `gcell_um` gcells.
NetParasitics route_parasitics(const route::NetRoute& route,
                               const netlist::MetalStack& stack,
                               double gcell_um);

/// Extract per-net parasitics from actual routes (route_parasitics of each
/// net's route). Nets without a route get zero parasitics (pin caps still
/// count).
std::vector<NetParasitics> extract_parasitics(
    const netlist::Netlist& nl, const route::RoutingResult& routing);

/// HPWL-based fallback when no routing is available (estimates with M3 RC).
std::vector<NetParasitics> estimate_parasitics(
    const netlist::Netlist& nl, const place::Placement& pl);

struct PpaReport {
  double critical_path_ps = 0.0;
  double dynamic_power_uw = 0.0;
  double leakage_power_uw = 0.0;
  double die_area_um2 = 0.0;
  double wirelength_um = 0.0;

  double total_power_uw() const { return dynamic_power_uw + leakage_power_uw; }
};

/// Per-net additional load (used by sm::core to model correction cells: each
/// protected net carries the pin caps and gate delay of its cell pair).
struct NetExtra {
  double cap_ff = 0.0;
  double delay_ps = 0.0;
};

/// Operating point of the conservative PPA analysis (paper: slow corner,
/// 0.95 V).
inline constexpr double kVdd = 0.95;  ///< volts
inline constexpr double kClockPeriodNs = 2.0;
/// Toggle probability per cycle of a net without a measured activity.
inline constexpr double kDefaultActivity = 0.1;

class Sta {
 public:

  /// Arrival time (ps) at every net, in topological order. `extra` may be
  /// empty or indexed by NetId.
  std::vector<double> arrival_times(const netlist::Netlist& nl,
                                    const std::vector<NetParasitics>& par,
                                    const std::vector<NetExtra>& extra = {}) const;

  /// Critical path delay: max arrival over observers (PO and DFF inputs).
  double critical_path_ps(const netlist::Netlist& nl,
                          const std::vector<NetParasitics>& par,
                          const std::vector<NetExtra>& extra = {}) const;

  /// Full PPA roll-up. `activity` is per-net toggle probability (from
  /// sm::sim::toggle_rates) or empty for the default activity.
  PpaReport analyze(const netlist::Netlist& nl, const place::Placement& pl,
                    const route::RoutingResult& routing,
                    const std::vector<double>& activity = {},
                    const std::vector<NetExtra>& extra = {}) const;

  /// Same roll-up with caller-provided parasitics and wirelength (used by
  /// sm::core to evaluate the *restored* functionality on the fabricated
  /// layout, where protected nets span erroneous routes plus BEOL
  /// restoration wires).
  PpaReport analyze_with(const netlist::Netlist& nl,
                         const place::Placement& pl,
                         const std::vector<NetParasitics>& par,
                         double wirelength_um,
                         const std::vector<double>& activity = {},
                         const std::vector<NetExtra>& extra = {}) const;
};

}  // namespace sm::timing
