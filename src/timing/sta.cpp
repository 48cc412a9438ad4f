#include "timing/sta.hpp"

#include "netlist/topo.hpp"

#include <algorithm>
#include <stdexcept>

namespace sm::timing {

using netlist::CellId;
using netlist::kInvalidNet;
using netlist::NetId;
using netlist::Netlist;

NetParasitics route_parasitics(const route::NetRoute& route,
                               const netlist::MetalStack& stack,
                               double gcell_um) {
  NetParasitics p;
  for (const auto& seg : route.segments) {
    if (seg.is_via()) {
      const int lo = std::min(seg.a.layer, seg.b.layer);
      const int hi = std::max(seg.a.layer, seg.b.layer);
      for (int l = lo; l < hi; ++l) {
        p.cap_ff += stack.via_cap_ff(l);
        p.res_kohm += stack.via_res_ohm(l) / 1000.0;
      }
    } else {
      const double len = seg.gcell_length() * gcell_um;
      const auto& m = stack.layer(seg.a.layer);
      p.cap_ff += len * m.cap_ff_per_um;
      p.res_kohm += len * m.res_ohm_per_um / 1000.0;
    }
  }
  return p;
}

std::vector<NetParasitics> extract_parasitics(
    const Netlist& nl, const route::RoutingResult& routing) {
  std::vector<NetParasitics> par(nl.num_nets());
  const auto& stack = nl.library().metal();
  const double g = routing.grid.gcell_um();
  // Routes run parallel to the route tasks, one task per net.
  for (const auto& r : routing.routes)
    if (r.net != kInvalidNet && r.net < nl.num_nets())
      par[r.net] = route_parasitics(r, stack, g);
  return par;
}

std::vector<NetParasitics> estimate_parasitics(const Netlist& nl,
                                               const place::Placement& pl) {
  std::vector<NetParasitics> par(nl.num_nets());
  const auto& m3 = nl.library().metal().layer(3);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const double len = place::net_hpwl(nl, pl, n);
    par[n].cap_ff = len * m3.cap_ff_per_um;
    par[n].res_kohm = len * m3.res_ohm_per_um / 1000.0;
  }
  return par;
}

std::vector<double> Sta::arrival_times(const Netlist& nl,
                                       const std::vector<NetParasitics>& par,
                                       const std::vector<NetExtra>& extra) const {
  if (par.size() != nl.num_nets())
    throw std::invalid_argument("Sta: parasitics size mismatch");
  const auto order = netlist::topological_order(nl);
  if (!order) throw std::logic_error("Sta: combinational cycle");

  // Load on each net: wire cap + sink pin caps (+ correction-cell extras).
  std::vector<double> load(nl.num_nets(), 0.0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    double c = par[n].cap_ff;
    for (const auto& s : nl.net(n).sinks)
      c += nl.type_of(s.cell).input_cap_ff;
    if (n < extra.size()) c += extra[n].cap_ff;
    load[n] = c;
  }

  std::vector<double> arrival(nl.num_nets(), 0.0);
  for (const CellId id : *order) {
    const auto& cell = nl.cell(id);
    const auto& t = nl.type_of(id);
    if (cell.output == kInvalidNet) continue;
    const NetId out = cell.output;

    // Input arrival: max over input nets, plus that net's wire delay
    // (Elmore: Rw * (Cw/2 + Cpin)). DFF/port outputs launch at t=0.
    double in_arrival = 0.0;
    if (nl.is_combinational(id)) {
      for (const NetId in : cell.inputs) {
        if (in == kInvalidNet) continue;
        const double wire_delay =
            par[in].res_kohm * (par[in].cap_ff / 2.0 + t.input_cap_ff);
        in_arrival = std::max(in_arrival, arrival[in] + wire_delay);
      }
    }
    double cell_delay = 0.0;
    if (!nl.is_port(id))
      cell_delay = t.intrinsic_delay_ps + t.drive_res_kohm * load[out];
    double a = in_arrival + cell_delay;
    if (out < extra.size()) a += extra[out].delay_ps;
    arrival[out] = a;
  }
  return arrival;
}

double Sta::critical_path_ps(const Netlist& nl,
                             const std::vector<NetParasitics>& par,
                             const std::vector<NetExtra>& extra) const {
  const auto arrival = arrival_times(nl, par, extra);
  double worst = 0.0;
  auto observe = [&](NetId n, double pin_cap) {
    const double wire_delay = par[n].res_kohm * (par[n].cap_ff / 2.0 + pin_cap);
    worst = std::max(worst, arrival[n] + wire_delay);
  };
  for (CellId id = 0; id < nl.num_cells(); ++id) {
    if (nl.is_dff(id)) {
      observe(nl.cell(id).inputs.at(0), nl.type_of(id).input_cap_ff);
    }
  }
  for (std::size_t i = 0; i < nl.primary_outputs().size(); ++i) {
    const CellId po = nl.primary_outputs()[i];
    observe(nl.primary_output_net(i), nl.type_of(po).input_cap_ff);
  }
  return worst;
}

PpaReport Sta::analyze(const Netlist& nl, const place::Placement& pl,
                       const route::RoutingResult& routing,
                       const std::vector<double>& activity,
                       const std::vector<NetExtra>& extra) const {
  return analyze_with(nl, pl, extract_parasitics(nl, routing),
                      routing.stats.total_wire_um(), activity, extra);
}

PpaReport Sta::analyze_with(const Netlist& nl, const place::Placement& pl,
                            const std::vector<NetParasitics>& par,
                            double wirelength_um,
                            const std::vector<double>& activity,
                            const std::vector<NetExtra>& extra) const {
  PpaReport rep;
  rep.critical_path_ps = critical_path_ps(nl, par, extra);
  rep.die_area_um2 = pl.floorplan.die.area();
  rep.wirelength_um = wirelength_um;

  const double f_ghz = 1.0 / kClockPeriodNs;  // GHz
  const double v2 = kVdd * kVdd;
  double dyn_uw = 0.0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    double c = par[n].cap_ff;
    for (const auto& s : nl.net(n).sinks)
      c += nl.type_of(s.cell).input_cap_ff;
    if (n < extra.size()) c += extra[n].cap_ff;
    const double a = (n < activity.size()) ? activity[n] : kDefaultActivity;
    // fF * V^2 * GHz = uW.
    dyn_uw += 0.5 * a * c * v2 * f_ghz;
  }
  rep.dynamic_power_uw = dyn_uw;

  double leak_nw = 0.0;
  for (CellId id = 0; id < nl.num_cells(); ++id)
    leak_nw += nl.type_of(id).leakage_nw;
  rep.leakage_power_uw = leak_nw / 1000.0;
  return rep;
}

}  // namespace sm::timing
