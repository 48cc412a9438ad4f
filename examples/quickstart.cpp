// Quickstart: the whole pipeline on one small benchmark, in ~60 lines.
//
//   1. generate an ISCAS-85-like netlist,
//   2. protect it (randomize + correction cells + lifting + BEOL restore),
//   3. attack the FEOL with the network-flow proximity attack,
//   4. print the security metrics the paper reports (CCR / OER / HD).
//
// Run:  ./quickstart [--bench=c880] [--seed=1]
#include "attack/proximity.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "util/args.hpp"
#include "workloads/generator.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace sm;
  const util::Args args(argc, argv);
  args.reject_unknown({"bench", "seed"});
  const std::string bench = args.get("bench", "c880");
  const auto seed = args.get_count("seed", 1);

  // A Nangate-45-like library with correction-cell pins in M6.
  netlist::CellLibrary lib{6};
  const auto nl =
      workloads::generate(lib, workloads::iscas85_profile(bench), seed);
  std::printf("%s-like netlist: %zu gates, %zu nets, %zu PIs, %zu POs\n",
              bench.c_str(), nl.num_gates(), nl.num_nets(),
              nl.primary_inputs().size(), nl.primary_outputs().size());

  // Protect: randomize until OER ~ 100%, place & route the erroneous
  // netlist, embed correction cells, lift, restore through the BEOL.
  core::FlowOptions flow;
  flow.lift_layer = 6;
  flow.placer.target_utilization = 0.45;
  core::RandomizeOptions rand_opts;
  rand_opts.seed = seed;
  const auto design = core::protect(nl, rand_opts, flow);
  std::printf(
      "protected: %zu swaps, erroneous-netlist OER %.1f%% / HD %.1f%%, "
      "restoration %s\n",
      design.ledger.entries.size(), 100 * design.oer, 100 * design.hd,
      design.restored_ok ? "EQUIVALENT to original" : "FAILED");

  // Attack the FEOL (split after M4) with every published hint enabled.
  const auto view = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, /*split=*/4);
  const auto res = attack::proximity_attack(
      design.erroneous, nl, design.layout.placement, view, &design.ledger);
  std::printf("attack on protected FEOL: CCR(randomized nets) %.1f%%, "
              "OER %.1f%%, HD %.1f%%\n",
              100 * res.ccr_protected(), 100 * res.rates.oer,
              100 * res.rates.hd);

  // Reference point: the same attack on the unprotected layout.
  const auto original = core::layout_original(nl, flow);
  const auto v0 =
      core::split_layout(nl, original.placement, original.routing,
                         original.tasks, original.num_net_tasks, 4);
  const auto r0 =
      attack::proximity_attack(nl, nl, original.placement, v0, nullptr);
  std::printf("attack on original layout:  CCR %.1f%%, OER %.1f%%, HD %.1f%%\n",
              100 * r0.ccr(), 100 * r0.rates.oer, 100 * r0.rates.hd);

  std::printf("PPA: power %.1f -> %.1f uW, delay %.0f -> %.0f ps, "
              "die area unchanged (%.0f um^2)\n",
              original.ppa.total_power_uw(), design.layout.ppa.total_power_uw(),
              original.ppa.critical_path_ps, design.layout.ppa.critical_path_ps,
              design.layout.ppa.die_area_um2);
  return 0;
}
