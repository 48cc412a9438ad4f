// Ablation (DESIGN.md Sec. 6): how much randomization is enough?
// Sweeps the swap budget on one ISCAS-85 benchmark and reports OER/HD of
// the erroneous netlist, attack CCR/OER/HD, and the PPA overheads — the
// trade-off the paper's Fig. 2 budget loop navigates. Also toggles the
// OER-driven stop against fixed budgets.
#include "attack/proximity.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header("Ablation: swap budget vs security and PPA cost");

  const std::string name = suite.only.empty() ? "c880" : suite.only.front();
  netlist::CellLibrary lib{6};
  const auto nl =
      workloads::generate(lib, workloads::iscas85_profile(name), suite.seed);
  const auto flow = sweep::task_flow(name, sweep::Workload::Iscas85,
                                     suite.seed, suite.scale);
  const auto original = core::layout_original(nl, flow);

  util::Table table({"Swaps", "Err OER", "Err HD", "Attack CCR(prot)",
                     "Attack OER", "Attack HD", "dPower", "dDelay"});

  for (const std::size_t budget : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    if (suite.quick && budget > 8) break;
    core::RandomizeOptions r;
    r.seed = suite.seed;
    r.max_swaps = budget;
    r.min_swaps = budget;
    r.target_oer = 2.0;  // fixed budget, no OER stop
    r.batch = std::max<std::size_t>(1, budget / 2);
    const auto design = core::protect(nl, r, flow);

    attack::ProximityOptions a;
    a.eval_patterns = suite.patterns / 2;
    const auto view = core::split_layout(
        design.erroneous, design.layout.placement, design.layout.routing,
        design.layout.tasks, design.layout.num_net_tasks, 4);
    const auto res =
        attack::proximity_attack(design.erroneous, nl, design.layout.placement,
                                 view, &design.ledger, a);

    table.add_row(
        {std::to_string(design.ledger.entries.size()),
         util::Table::pct(100 * design.oer, 1),
         util::Table::pct(100 * design.hd, 1),
         util::Table::pct(100 * res.ccr_protected(), 1),
         util::Table::pct(100 * res.rates.oer, 1),
         util::Table::pct(100 * res.rates.hd, 1),
         util::Table::pct(util::pct_delta(original.ppa.total_power_uw(),
                                          design.layout.ppa.total_power_uw()),
                          1),
         util::Table::pct(
             util::pct_delta(original.ppa.critical_path_ps,
                             design.layout.ppa.critical_path_ps),
             1)});
  }
  std::fputs(table.render().c_str(), stdout);

  // The OER-driven stopping rule (the paper's criterion) for reference.
  const auto design =
      core::protect(nl, sweep::task_randomize(suite.seed), flow);
  std::printf("\nOER-driven stop: %zu swaps -> OER %.1f%%, HD %.1f%%\n",
              design.ledger.entries.size(), 100 * design.oer,
              100 * design.hd);
  return 0;
}
