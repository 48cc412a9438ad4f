#include "core/protect.hpp"

#include "core/equivalence.hpp"
#include "core/pipeline.hpp"

#include "sim/simulator.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace sm::core {

using netlist::NetId;
using netlist::Netlist;

LayoutResult layout_original(const Netlist& nl, const FlowOptions& opts) {
  // The unprotected reference is exactly the staged pipeline, stage by
  // stage: place (buffering included), then route + PPA.
  return route_design(nl, place_design(nl, opts), opts);
}

NaiveLiftDesign layout_naive_lift(const Netlist& nl,
                                  const std::vector<NetId>& nets,
                                  const FlowOptions& opts) {
  NaiveLiftDesign out;
  place::Placer placer(opts.placer);
  out.layout.placement = placer.place(nl);
  out.plan =
      plan_naive_lift(nl, nets, out.layout.placement, opts.lift_layer);

  // Lift each net, through its lift cell (pin in M6/M8).
  std::vector<int> min_layer(nl.num_nets(), 1);
  for (const NetId n : nets) min_layer[n] = opts.lift_layer;
  route_step(nl, out.layout, opts, min_layer, out.plan);

  // Lift cells load their nets like a BUF_X2 input (paper: characteristics
  // borrowed from BUF_X2) and add one cell traversal of delay.
  const auto& lift_type = nl.library().type(nl.library().naive_lift_cell());
  std::vector<timing::NetExtra> extra(nl.num_nets());
  for (const NetId n : nets) {
    extra[n].cap_ff += lift_type.input_cap_ff;
    extra[n].delay_ps += lift_type.intrinsic_delay_ps;
  }
  out.layout.ppa = evaluate_ppa(nl, out.layout, opts, extra);
  return out;
}

ProtectedDesign protect(const Netlist& original,
                        const RandomizeOptions& rand_opts,
                        const FlowOptions& opts) {
  ProtectedDesign out{Netlist(original.library()), Netlist(original.library()),
                      {}, {}, {}, 0, 0, false};

  // (1) Randomize.
  RandomizeResult rr = randomize(original, rand_opts);
  out.erroneous = std::move(rr.erroneous);
  out.ledger = std::move(rr.ledger);
  out.oer = rr.oer;
  out.hd = rr.hd;

  // (2) Place the erroneous netlist. Swapped drivers/sinks are "don't
  // touch" in the paper's Innovus flow, which maps to: the placer simply
  // places what it is given, no logic restructuring exists in this model.
  // Drive-strength fixing, when on, sizes the *erroneous* netlist: the
  // repeater sizes the FEOL reveals now describe wrong connectivity (paper
  // Sec. 3). It skips the protected nets, whose connectivity the defense
  // owns.
  const auto protected_nets = out.ledger.protected_nets();
  PlacedDesign placed = place_design(out.erroneous, opts, protected_nets);
  out.layout.placement = std::move(placed.placement);
  if (placed.sized) out.erroneous = std::move(*placed.sized);

  // (3) Embed correction cells and lift the protected nets.
  out.plan = plan_corrections(out.erroneous, out.ledger, out.layout.placement,
                              opts.lift_layer);
  std::vector<int> min_layer(out.erroneous.num_nets(), 1);
  for (const NetId n : protected_nets) min_layer[n] = opts.lift_layer;

  // (4) Route: erroneous nets (through their correction cells, lifted) plus
  // the BEOL restoration wires between correction-cell pairs.
  route_step(out.erroneous, out.layout, opts, min_layer, out.plan);

  // (5) Restore at the netlist level and check equivalence (the physical
  // restoration is the pair wires routed above; the netlist-level check is
  // our Formality substitute). `restored` keeps any repeaters the sizing
  // pass added, so it is the netlist the finished chip implements.
  out.restored = out.erroneous.clone();
  restore_netlist(out.restored, out.ledger);
  EquivOptions eopts;
  eopts.seed = opts.seed ^ 0xec01ULL;
  out.restored_ok = check_equivalence(original, out.restored, eopts).verdict ==
                    EquivVerdict::Equivalent;
  const Netlist& restored = out.restored;

  // (6) PPA of the restored functionality on the fabricated layout.
  // A restored protected connection D1->S1 runs: D1's erroneous net (to
  // correction cell A), one BEOL pair wire, and the sink-side piece of the
  // partner erroneous net (cell B's Z pin stub to S1). We model the partner
  // piece as half that net's parasitics, and each traversal adds two
  // correction-cell delays/input loads (characteristics of BUF_X2).
  auto par = timing::extract_parasitics(out.erroneous, out.layout.routing);
  std::vector<timing::NetParasitics> wire_par(out.plan.wires.size());
  for (std::size_t w = 0; w < out.plan.wires.size(); ++w)
    wire_par[w] = timing::route_parasitics(
        out.layout.routing.routes[out.layout.num_net_tasks + w],
        original.library().metal(), out.layout.routing.grid.gcell_um());
  const auto& corr = original.library().type(original.library().correction_cell());
  std::vector<timing::NetExtra> extra(restored.num_nets());
  // Snapshot the fabricated parasitics: partner contributions must come from
  // the base routes, not from values already inflated by earlier entries
  // (nets may participate in several swaps).
  const std::vector<timing::NetParasitics> base_par = par;
  for (std::size_t e = 0; e < out.ledger.entries.size(); ++e) {
    const auto& entry = out.ledger.entries[e];
    // Wire 2e restores net_a's signal (A.Y -> B.D), wire 2e+1 net_b's.
    auto account = [&](NetId net, NetId partner, std::size_t w) {
      par[net].cap_ff += wire_par[w].cap_ff + 0.5 * base_par[partner].cap_ff;
      par[net].res_kohm +=
          wire_par[w].res_kohm + 0.5 * base_par[partner].res_kohm;
      extra[net].cap_ff += 2.0 * corr.input_cap_ff;
      extra[net].delay_ps +=
          2.0 * corr.intrinsic_delay_ps +
          corr.drive_res_kohm * (wire_par[w].cap_ff + corr.input_cap_ff);
    };
    account(entry.net_a, entry.net_b, 2 * e);
    account(entry.net_b, entry.net_a, 2 * e + 1);
  }
  const auto activity =
      sim::toggle_rates(restored, kActivityPatterns, opts.seed ^ 0xac7ULL);
  out.layout.ppa = timing::Sta().analyze_with(
      restored, out.layout.placement, par,
      out.layout.routing.stats.total_wire_um(), activity, extra);
  return out;
}

ProtectedDesign protect_with_budget(const Netlist& original,
                                    RandomizeOptions rand_opts,
                                    const FlowOptions& opts,
                                    const timing::PpaReport& reference,
                                    double budget_pct, int max_rounds) {
  ProtectedDesign best = protect(original, rand_opts, opts);
  auto overhead = [&](const ProtectedDesign& d) {
    const double pwr = util::pct_delta(reference.total_power_uw(),
                                       d.layout.ppa.total_power_uw());
    const double dly = util::pct_delta(reference.critical_path_ps,
                                       d.layout.ppa.critical_path_ps);
    return std::max(pwr, dly);
  };
  if (overhead(best) > budget_pct) return best;  // even the base overshoots

  for (int round = 1; round < max_rounds; ++round) {
    rand_opts.max_swaps *= 2;
    rand_opts.target_oer = 1.1;  // OER can't exceed 1: spend the full budget
    ProtectedDesign next = protect(original, rand_opts, opts);
    if (overhead(next) > budget_pct) break;
    if (next.ledger.entries.size() <= best.ledger.entries.size()) break;
    best = std::move(next);
  }
  return best;
}

}  // namespace sm::core
