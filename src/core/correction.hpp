// Correction cells (paper Sec. 4 and Fig. 3).
//
// Each committed swap (D1->S2, D2->S1 in the erroneous netlist; truth is
// D1->S1, D2->S2) gets a *pair* of correction cells, modeled as
// 2-input/2-output OR gates with pins on a high metal layer (M6/M8):
//
//   cell A: C <- D1 (erroneous net_a), Z -> S2   [arc C->Z used in FEOL]
//   cell B: C <- D2 (erroneous net_b), Z -> S1
//
// Restoration disables C->Z / D->Y and adds two BEOL wires between the pair:
//   A.Y -> B.D   (D1's signal reaches S1 through B's D->Z arc)
//   B.Y -> A.D   (D2's signal reaches S2 through A's D->Z arc)
//
// The cells occupy no device-layer area and may overlap standard cells;
// custom legalization only keeps correction cells apart from each other.
#pragma once

#include "core/randomizer.hpp"
#include "place/placement.hpp"
#include "util/geometry.hpp"

#include <cstdint>
#include <vector>

namespace sm::core {

struct CorrectionCell {
  util::Point pos;             ///< legalized location (pin stack position)
  int pin_layer = 6;           ///< M6 (ISCAS-85) or M8 (superblue)
  netlist::NetId tapped_net = netlist::kInvalidNet;  ///< erroneous net via C/Z
  std::size_t entry = 0;       ///< ledger entry index
  int side = 0;                ///< 0 = cell A (net_a), 1 = cell B (net_b)
};

/// One BEOL restoration wire between a cell pair (Y of `from` to D of `to`).
struct PairWire {
  std::size_t from_cell = 0;
  std::size_t to_cell = 0;
};

struct CorrectionPlan {
  std::vector<CorrectionCell> cells;  ///< 2 per ledger entry: [A0,B0,A1,B1,...]
  std::vector<PairWire> wires;        ///< 2 per ledger entry
  int pin_layer = 6;
};

/// Plan correction cells for every ledger entry. Each cell starts at the
/// midpoint of its erroneous connection (driver of the tapped net to the
/// swapped-in sink), which places it on the erroneous route; positions are
/// then legalized so no two correction cells overlap (standard cells are
/// fair game — the cells only exist in the BEOL).
CorrectionPlan plan_corrections(const netlist::Netlist& erroneous,
                                const SwapLedger& ledger,
                                const place::Placement& pl, int pin_layer);

/// Naive-lifting baseline: one lift cell per net, at the net's pin centroid,
/// same overlap-legalization, no erroneous connections and no pair wires.
CorrectionPlan plan_naive_lift(const netlist::Netlist& nl,
                               const std::vector<netlist::NetId>& nets,
                               const place::Placement& pl, int pin_layer);

/// Shift cells minimally so no two occupy the same site of a `site_um` grid.
/// Exposed for tests.
void legalize_corrections(CorrectionPlan& plan, const util::Rect& die,
                          double site_um);

}  // namespace sm::core
