#include "core/baselines.hpp"

#include "util/rng.hpp"

#include <algorithm>
#include <map>

namespace sm::core {

using netlist::CellId;
using netlist::CellLibrary;
using netlist::NetId;
using netlist::Netlist;

LayoutResult layout_placement_perturbed(const Netlist& nl,
                                        const FlowOptions& opts,
                                        const PlacedDesign& placed,
                                        PerturbStrategy strategy,
                                        double fraction, std::uint64_t seed,
                                        double radius_frac) {
  const Netlist& phys = placed.physical(nl);
  LayoutResult out;
  out.placement = placed.placement;
  util::Rng rng(seed ^ 0x9137ULL);
  const double radius =
      radius_frac * out.placement.floorplan.die.width();

  // Candidate classes: gates are only swapped with gates of the same class.
  auto class_of = [&](CellId id) -> std::uint64_t {
    const auto& t = phys.type_of(id);
    switch (strategy) {
      case PerturbStrategy::Random:
        return 0;
      case PerturbStrategy::GColor:  // gates of equal fan-in
        return static_cast<std::uint64_t>(t.num_inputs);
      case PerturbStrategy::GType1:  // identical cell type
        return phys.cell(id).type;
      case PerturbStrategy::GType2:  // same logic function, any drive
        return static_cast<std::uint64_t>(t.fn) + 1000;
    }
    return 0;
  };

  std::map<std::uint64_t, std::vector<CellId>> classes;
  for (CellId id = 0; id < phys.num_cells(); ++id) {
    if (phys.type_of(id).cls != netlist::CellClass::Standard) continue;
    classes[class_of(id)].push_back(id);
  }
  for (auto& [cls, members] : classes) {
    rng.shuffle(members);
    const std::size_t n_swap =
        static_cast<std::size_t>(fraction * static_cast<double>(members.size()));
    std::size_t done = 0;
    std::vector<bool> used(members.size(), false);
    for (std::size_t i = 0; i < members.size() && done < n_swap; ++i) {
      if (used[i]) continue;
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (used[j]) continue;
        if (util::manhattan(out.placement.pos[members[i]],
                            out.placement.pos[members[j]]) > radius)
          continue;
        std::swap(out.placement.pos[members[i]], out.placement.pos[members[j]]);
        used[i] = used[j] = true;
        ++done;
        break;
      }
    }
  }
  route_step(phys, out, opts);
  out.ppa = evaluate_ppa(phys, out, opts);
  return out;
}

SwappedLayout layout_pin_swapped(const Netlist& nl, const FlowOptions& opts,
                                 std::size_t num_swaps, std::uint64_t seed) {
  SwappedLayout out{Netlist(nl.library()), {}, {}};
  RandomizeOptions ropts;
  ropts.max_swaps = num_swaps;
  ropts.min_swaps = num_swaps;    // no OER-driven stop: fixed budget
  ropts.target_oer = 2.0;         // unreachable: run to max_swaps
  ropts.batch = std::max<std::size_t>(1, num_swaps / 4);
  ropts.seed = seed;
  RandomizeResult rr = randomize(nl, ropts);
  out.erroneous = std::move(rr.erroneous);
  out.ledger = std::move(rr.ledger);
  out.layout =
      route_design(out.erroneous, place_design(out.erroneous, opts), opts);
  return out;
}

LayoutResult layout_routing_perturbed(const Netlist& nl,
                                      const FlowOptions& opts,
                                      const PlacedDesign& placed,
                                      double fraction, int elevate_to,
                                      std::uint64_t seed) {
  const Netlist& phys = placed.physical(nl);
  LayoutResult out;
  out.placement = placed.placement;
  util::Rng rng(seed ^ 0x7712ULL);
  std::vector<int> min_layer(phys.num_nets(), 1);
  for (NetId n = 0; n < phys.num_nets(); ++n)
    if (!phys.net(n).sinks.empty() && rng.chance(fraction))
      min_layer[n] = elevate_to;
  route_step(phys, out, opts, min_layer);
  out.ppa = evaluate_ppa(phys, out, opts);
  return out;
}

LayoutResult layout_routing_blockage(const Netlist& nl,
                                     const FlowOptions& opts,
                                     const PlacedDesign& placed,
                                     int num_blockages, double size_um,
                                     int max_layer, std::uint64_t seed) {
  const Netlist& phys = placed.physical(nl);
  LayoutResult out;
  out.placement = placed.placement;
  util::Rng rng(seed ^ 0xb10cULL);

  FlowOptions blocked = opts;
  const auto& die = out.placement.floorplan.die;
  for (int i = 0; i < num_blockages; ++i) {
    const double x = rng.uniform(die.lo.x, die.hi.x - size_um);
    const double y = rng.uniform(die.lo.y, die.hi.y - size_um);
    blocked.router.blockages.push_back(
        {util::Rect{{x, y}, {x + size_um, y + size_um}}, 1, max_layer});
  }
  route_step(phys, out, blocked);
  out.ppa = evaluate_ppa(phys, out, blocked);
  return out;
}

}  // namespace sm::core
