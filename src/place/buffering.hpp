// Post-placement drive-strength fixing (repeater insertion).
//
// Commercial flows buffer long nets and upsize overloaded drivers; the
// resulting drive strengths are one of the proximity-attack hints the paper
// discusses (Sec. 3): "a large buffer such as BUFX8 typically hints that
// its sink(s) is/are relatively far away. In the original netlist, however,
// this buffer may actually drive some nearby sink(s)." Running this pass on
// the *erroneous* netlist therefore bakes misleading drive strengths into
// the FEOL — exactly the paper's argument.
//
// The pass inserts a buffer of distance-appropriate strength next to the
// driver of every net whose placed HPWL exceeds a threshold, re-pointing
// the far sinks at the buffer output. Function is preserved (buffers are
// identity); sequential elements are untouched.
#pragma once

#include "netlist/netlist.hpp"
#include "place/placement.hpp"

#include <cstdint>
#include <vector>

namespace sm::place {

/// Strength thresholds: HPWL above k-th entry selects strength 2/4/8.
inline constexpr double kStrength2Um = 25.0;
inline constexpr double kStrength4Um = 50.0;
inline constexpr double kStrength8Um = 100.0;

struct BufferingOptions {
  /// Nets with HPWL above this (in units of average row height x this
  /// factor... plainly: microns) get a repeater.
  double hpwl_threshold_um = 25.0;
};

struct BufferingResult {
  std::size_t buffers_inserted = 0;
  std::vector<netlist::CellId> buffers;  ///< the new repeater cells
};

/// Insert repeaters into `nl` based on placement `pl`; new cells are placed
/// at their net's bounding-box center (caller re-legalizes via Placer or
/// legalize_rows). Extends pl.pos for the new cells. Nets in `skip` keep
/// their connectivity (e.g. protected nets the defense owns).
BufferingResult insert_buffers(netlist::Netlist& nl, Placement& pl,
                               const BufferingOptions& opts = {},
                               const std::vector<netlist::NetId>& skip = {});

}  // namespace sm::place
