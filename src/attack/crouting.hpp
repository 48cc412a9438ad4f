// Routing-centric "crouting" attack (Magana et al., ICCAD'16 [6]).
//
// The attack does not recover a netlist; it confines the solution space.
// For every vpin (via in the topmost FEOL layer) it enumerates candidate
// partner vpins within square search windows of half-width 15, 30 and
// 45 um (the paper uses 15/30/45 gcell units; our gcells are 2.8 um, so
// these are the same regime). Reported metrics (paper Table 3):
//   #vpins          — size of the attack problem,
//   E[LS]           — average candidate-list size per bounding-box size,
//   match-in-list   — fraction of vpins whose true counterpart (another
//                     fragment of the same net) appears in the list.
#pragma once

#include "core/split.hpp"

#include <vector>

namespace sm::attack {

struct CRoutingResult {
  std::size_t num_vpins = 0;
  std::vector<double> candidate_list_size;  ///< E[LS] per bbox
  std::vector<double> match_in_list;        ///< fraction per bbox
  bool failed = false;  ///< no vpins -> nothing to attack ("N/A" rows)
};

CRoutingResult crouting_attack(const core::SplitView& view);

}  // namespace sm::attack
