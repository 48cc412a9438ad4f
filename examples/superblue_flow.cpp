// Industrial-scale scenario: a superblue clone through the full flow with
// correction pins in M8 (the paper's large-benchmark configuration), then
// both attacks — crouting on the routing view and the network-flow attack
// on the netlist view — plus the Fig. 5-style per-layer wirelength profile.
//
// Run:  ./superblue_flow [--bench=superblue18] [--scale=0.01]
#include "attack/crouting.hpp"
#include "attack/proximity.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "metrics/report.hpp"
#include "util/args.hpp"
#include "workloads/generator.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace sm;
  const util::Args args(argc, argv);
  args.reject_unknown({"bench", "scale", "seed"});
  const std::string bench = args.get("bench", "superblue18");
  const double scale = args.get_double("scale", 0.01);
  const auto seed = args.get_count("seed", 1);

  const auto spec = workloads::superblue_profile(bench, scale);
  netlist::CellLibrary lib{8};  // correction pins in M8
  const auto nl = workloads::generate(lib, spec, seed);
  std::printf("%s clone at scale %.3f: %zu gates (%.0f%% published size)\n",
              bench.c_str(), scale, nl.num_gates(), 100 * scale);

  core::FlowOptions flow;
  flow.lift_layer = 8;
  flow.placer.target_utilization = spec.utilization * 0.5;
  flow.seed = seed;

  const auto original = core::layout_original(nl, flow);
  core::RandomizeOptions rand_opts;
  rand_opts.seed = seed;
  const auto design = core::protect(nl, rand_opts, flow);
  std::printf("protected: %zu swaps, OER %.1f%%, restoration %s\n",
              design.ledger.entries.size(), 100 * design.oer,
              design.restored_ok ? "ok" : "FAILED");

  // Fig. 5-style layer profile of the randomized nets.
  const auto nets = design.ledger.protected_nets();
  auto profile = [&](const char* label, const route::RoutingResult& routing) {
    const auto share =
        metrics::layer_shares(metrics::per_layer_wirelength(routing, nets));
    std::printf("%-9s wirelength by layer:", label);
    for (int l = 1; l <= 10; ++l)
      std::printf(" M%d=%.0f%%", l, share[static_cast<std::size_t>(l)]);
    std::printf("\n");
  };
  profile("original", original.routing);
  profile("proposed", design.layout.routing);

  // crouting attack (routing-centric, Table 3 metrics), split after M4.
  for (const bool protected_run : {false, true}) {
    const auto& lay = protected_run ? design.layout : original;
    const auto& net_view = protected_run ? design.erroneous : nl;
    const auto view = core::split_layout(net_view, lay.placement, lay.routing,
                                         lay.tasks, lay.num_net_tasks, 4);
    const auto cr = attack::crouting_attack(view);
    std::printf("crouting on %s: %zu vpins, E[LS]@15/30/45 = %.1f/%.1f/%.1f\n",
                protected_run ? "proposed" : "original", cr.num_vpins,
                cr.candidate_list_size[0], cr.candidate_list_size[1],
                cr.candidate_list_size[2]);
  }

  // Network-flow attack on the protected FEOL.
  const auto view = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, 4);
  attack::ProximityOptions popts;
  popts.eval_patterns = 50000;
  const auto res = attack::proximity_attack(
      design.erroneous, nl, design.layout.placement, view, &design.ledger,
      popts);
  std::printf("network-flow attack: CCR(randomized) %.1f%%, OER %.1f%%, "
              "HD %.1f%%\n",
              100 * res.ccr_protected(), 100 * res.rates.oer,
              100 * res.rates.hd);
  return 0;
}
