// Design-space exploration: the trade-off a designer adopting the scheme
// actually navigates — PPA budget versus attack resilience, across split
// layers. Produces a frontier table for one benchmark.
//
// Run:  ./design_space [--bench=c2670] [--seed=1]
#include "attack/proximity.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/generator.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace sm;
  const util::Args args(argc, argv);
  args.reject_unknown({"bench", "seed"});
  const std::string bench = args.get("bench", "c2670");
  const auto seed = args.get_count("seed", 1);

  netlist::CellLibrary lib{6};
  const auto nl =
      workloads::generate(lib, workloads::iscas85_profile(bench), seed);
  core::FlowOptions flow;
  flow.placer.target_utilization = 0.45;
  flow.seed = seed;
  const auto original = core::layout_original(nl, flow);
  std::printf("%s baseline: power %.1f uW, delay %.0f ps\n\n", bench.c_str(),
              original.ppa.total_power_uw(), original.ppa.critical_path_ps);

  util::Table table({"PPA budget", "Swaps", "dPower", "dDelay",
                     "CCR(prot) M3", "CCR(prot) M5", "OER", "HD"});
  for (const double budget : {5.0, 10.0, 20.0, 40.0}) {
    core::RandomizeOptions r;
    r.seed = seed;
    r.max_swaps = std::max<std::size_t>(4, nl.num_gates() / 80);
    const auto design =
        core::protect_with_budget(nl, r, flow, original.ppa, budget, 4);

    auto attack_at = [&](int split) {
      const auto view = core::split_layout(
          design.erroneous, design.layout.placement, design.layout.routing,
          design.layout.tasks, design.layout.num_net_tasks, split);
      attack::ProximityOptions a;
      a.eval_patterns = 20000;
      return attack::proximity_attack(design.erroneous, nl,
                                      design.layout.placement, view,
                                      &design.ledger, a);
    };
    const auto at3 = attack_at(3);
    const auto at5 = attack_at(5);

    table.add_row(
        {util::Table::pct(budget, 0), std::to_string(design.ledger.entries.size()),
         util::Table::pct(util::pct_delta(original.ppa.total_power_uw(),
                                          design.layout.ppa.total_power_uw()),
                          1),
         util::Table::pct(
             util::pct_delta(original.ppa.critical_path_ps,
                             design.layout.ppa.critical_path_ps),
             1),
         util::Table::pct(100 * at3.ccr_protected(), 1),
         util::Table::pct(100 * at5.ccr_protected(), 1),
         util::Table::pct(100 * at3.rates.oer, 1),
         util::Table::pct(100 * at3.rates.hd, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nReading the frontier: larger budgets permit more swaps, which push\n"
      "the attacker's CCR on randomized connections toward zero while OER\n"
      "stays ~100%% — security is bought with (bounded) power/delay.\n");
  return 0;
}
