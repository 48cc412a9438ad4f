// Quickstart: the whole pipeline on one small benchmark.
//
//   1. generate an ISCAS-85-like netlist,
//   2. protect it (randomize + correction cells + lifting + BEOL restore),
//   3. attack the FEOL with the network-flow proximity attack,
//   4. print the security metrics the paper reports (CCR / OER / HD).
//
// Layout and protection run the sweep's flow recipe (sweep::task_flow and
// sweep::task_randomize), so `--seed` moves the generator, the placement
// and the randomizer together, as it does for a `sm_flow sweep` cell.
//
// Run:  ./quickstart [--bench=c880] [--seed=1]
#include "attack/proximity.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "sweep/sweep.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workloads/generator.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace sm;
  const util::Args args(argc, argv);
  args.reject_unknown({"bench", "seed"});
  const std::string bench = args.get("bench", "c880");
  const auto seed = args.get_count("seed", 1);

  // The ISCAS recipe: correction-cell pins in M6, 45% utilization (the
  // clone scale applies to superblue clones only).
  const auto flow =
      sweep::task_flow(bench, sweep::Workload::Iscas85, seed, /*scale=*/1.0);
  netlist::CellLibrary lib{flow.lift_layer};
  const auto nl =
      workloads::generate(lib, workloads::iscas85_profile(bench), seed);
  std::printf("%s-like netlist: %zu gates, %zu nets, %zu PIs, %zu POs\n",
              bench.c_str(), nl.num_gates(), nl.num_nets(),
              nl.primary_inputs().size(), nl.primary_outputs().size());

  // Protect: randomize until OER ~ 100%, place & route the erroneous
  // netlist, embed correction cells, lift, restore through the BEOL.
  const auto design = core::protect(nl, sweep::task_randomize(seed), flow);
  std::printf(
      "protected: %zu swaps, erroneous-netlist OER %.1f%% / HD %.1f%%, "
      "restoration %s\n",
      design.ledger.entries.size(), 100 * design.oer, 100 * design.hd,
      design.restored_ok ? "EQUIVALENT to original" : "FAILED");

  // A CCR over no open sink, or an error rate over no simulated pattern,
  // has nothing to measure and prints n/a.
  const auto print_attack = [](const char* what, double ccr,
                               const attack::ProximityResult& r) {
    const bool simulated = r.rates.patterns != 0;
    std::printf("%s %s, OER %s, HD %s\n", what,
                util::Table::pct_or_na(r.open_sinks != 0, 100 * ccr).c_str(),
                util::Table::pct_or_na(simulated, 100 * r.rates.oer).c_str(),
                util::Table::pct_or_na(simulated, 100 * r.rates.hd).c_str());
  };

  // Attack the FEOL (split after M4) with every published hint enabled.
  const auto view = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, /*split=*/4);
  const auto res = attack::proximity_attack(
      design.erroneous, nl, design.layout.placement, view, &design.ledger);
  print_attack("attack on protected FEOL: CCR(randomized nets)",
               res.ccr_protected(), res);

  // Reference point: the same attack on the unprotected layout.
  const auto original = core::layout_original(nl, flow);
  const auto v0 =
      core::split_layout(nl, original.placement, original.routing,
                         original.tasks, original.num_net_tasks, 4);
  const auto r0 =
      attack::proximity_attack(nl, nl, original.placement, v0, nullptr);
  print_attack("attack on original layout:  CCR", r0.ccr(), r0);

  std::printf("PPA: power %.1f -> %.1f uW, delay %.0f -> %.0f ps, "
              "die area unchanged (%.0f um^2)\n",
              original.ppa.total_power_uw(), design.layout.ppa.total_power_uw(),
              original.ppa.critical_path_ps, design.layout.ppa.critical_path_ps,
              design.layout.ppa.die_area_um2);
  return 0;
}
