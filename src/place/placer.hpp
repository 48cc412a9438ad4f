// The placer: recursive min-cut bisection (FM at each level), Tetris row
// legalization, and greedy-swap detailed placement.
//
// This substitutes for Cadence Innovus' placement step (see DESIGN.md). The
// property the attacks rely on — *connected gates end up physically close* —
// emerges from min-cut bisection exactly as it does from commercial
// analytical placement, which is what makes proximity attacks work on
// original layouts and fail on layouts placed from randomized netlists.
#pragma once

#include "place/placement.hpp"
#include "util/rng.hpp"

#include <cstdint>

namespace sm::place {

inline constexpr int kLeafCells = 10;  ///< stop bisection at this region size
inline constexpr int kFmPasses = 6;
inline constexpr double kFmBalance = 0.1;
/// Force-directed refinement iterations between bisection and detailed
/// placement. This gives the placer analytic-placement behaviour: a cell
/// is pulled toward the centroid of its connected pins, so one long
/// (e.g. erroneous) net drags its endpoints measurably — the effect the
/// paper's Table 1 relies on. Iterations that worsen HPWL are rolled back.
inline constexpr int kForceIterations = 3;
inline constexpr double kForceAlpha = 0.5;  ///< pull toward the centroid
inline constexpr double kAspectRatio = 1.0;  ///< die height / width

struct PlacerOptions {
  double target_utilization = 0.7;  ///< cell area / core area
  std::uint64_t seed = 1;
  int detailed_passes = 2;      ///< greedy swap refinement sweeps
};

class Placer {
 public:
  explicit Placer(PlacerOptions opts = {}) : opts_(opts) {}

  /// Place every cell of `nl`. Ports go to the die boundary; standard cells
  /// and DFFs are legalized into rows. Deterministic in (netlist, options).
  Placement place(const netlist::Netlist& nl) const;

  /// Compute the floorplan a netlist needs at the configured utilization.
  Floorplan make_floorplan(const netlist::Netlist& nl) const;

 private:
  PlacerOptions opts_;
};

/// Row-legalize `pl` in place: snap movable cells to non-overlapping row
/// sites nearest their current locations (Tetris). Exposed for reuse and for
/// tests; the Placer calls it internally.
void legalize_rows(const netlist::Netlist& nl, Placement& pl);

/// Greedy-swap detailed placement: `passes` sweeps of profitable pair swaps
/// and single-cell nudges. Returns the HPWL after refinement.
double detailed_place(const netlist::Netlist& nl, Placement& pl, int passes,
                      std::uint64_t seed);

/// Force-directed refinement: pull every movable cell toward the weighted
/// centroid of its connected pins, then re-legalize; keep the iteration only
/// if total HPWL improves. Returns the final HPWL.
double force_refine(const netlist::Netlist& nl, Placement& pl, int iterations,
                    double alpha);

}  // namespace sm::place
