#include "place/buffering.hpp"

#include <algorithm>

namespace sm::place {

using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sink;

BufferingResult insert_buffers(Netlist& nl, Placement& pl,
                               const BufferingOptions& opts,
                               const std::vector<NetId>& skip) {
  BufferingResult result;
  const auto& lib = nl.library();
  std::vector<bool> skipped(nl.num_nets(), false);
  for (const NetId n : skip)
    if (n < skipped.size()) skipped[n] = true;

  // Snapshot the net count: nets created by inserted buffers are final.
  const NetId original_nets = static_cast<NetId>(nl.num_nets());
  for (NetId n = 0; n < original_nets; ++n) {
    if (skipped[n]) continue;
    const auto& net = nl.net(n);
    if (net.sinks.empty()) continue;
    const double hpwl = net_hpwl(nl, pl, n);
    if (hpwl < opts.hpwl_threshold_um) continue;

    int strength = 2;
    if (hpwl >= kStrength8Um) strength = 8;
    else if (hpwl >= kStrength4Um) strength = 4;

    const util::Point center = net_bbox(nl, pl, n).center();
    const CellId buf = nl.add_cell(
        "rep" + std::to_string(result.buffers_inserted) + "_" + net.name,
        lib.buffer(strength));
    // Re-point every sink at the repeater output, then feed the repeater.
    const std::vector<Sink> sinks = nl.net(n).sinks;  // copy: list mutates
    const NetId buf_out = nl.cell(buf).output;
    for (const Sink& s : sinks) nl.reconnect_sink(s.cell, s.pin, buf_out);
    nl.connect_input(buf, 0, n);

    pl.pos.push_back(center);
    result.buffers.push_back(buf);
    ++result.buffers_inserted;
  }
  nl.validate();
  return result;
}

}  // namespace sm::place
