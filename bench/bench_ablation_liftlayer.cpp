// Ablation (DESIGN.md Sec. 6): where to put the correction-cell pins?
// The paper uses M6 for ISCAS-85 and M8 for superblue, and argues that
// splitting after higher layers lowers the commercial cost of SM. This
// sweep lifts one benchmark to M4/M6/M8 and reports, per lift layer:
// via counts above the split, PPA overheads, and the attack outcome when
// the layout is split just below the pins.
#include "attack/proximity.hpp"
#include "common.hpp"
#include "metrics/report.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header("Ablation: correction-cell pin layer (lift layer)");

  const std::string name = suite.only.empty() ? "c1355" : suite.only.front();

  util::Table table({"Lift layer", "Split", "dPower", "dDelay", "Total vias",
                     "CCR(prot)", "OER", "HD"});
  for (const int lift : {4, 6, 8}) {
    netlist::CellLibrary lib{lift};
    const auto nl =
        workloads::generate(lib, workloads::iscas85_profile(name), suite.seed);
    auto flow = sweep::task_flow(name, sweep::Workload::Iscas85, suite.seed,
                                 suite.scale);
    flow.lift_layer = lift;
    const auto original = core::layout_original(nl, flow);
    const auto design =
        core::protect(nl, sweep::task_randomize(suite.seed), flow);

    const int split = lift - 1;  // split just below the correction pins
    const auto view = core::split_layout(
        design.erroneous, design.layout.placement, design.layout.routing,
        design.layout.tasks, design.layout.num_net_tasks, split);
    attack::ProximityOptions a;
    a.eval_patterns = suite.patterns / 2;
    const auto res =
        attack::proximity_attack(design.erroneous, nl, design.layout.placement,
                                 view, &design.ledger, a);

    table.add_row(
        {"M" + std::to_string(lift), "M" + std::to_string(split),
         util::Table::pct(util::pct_delta(original.ppa.total_power_uw(),
                                          design.layout.ppa.total_power_uw()),
                          1),
         util::Table::pct(
             util::pct_delta(original.ppa.critical_path_ps,
                             design.layout.ppa.critical_path_ps),
             1),
         util::Table::count(design.layout.routing.stats.total_vias()),
         util::Table::pct(100 * res.ccr_protected(), 1),
         util::Table::pct(100 * res.rates.oer, 1),
         util::Table::pct(100 * res.rates.hd, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nHigher lift layers need deeper via stacks (more vias, more RC) but\n"
      "permit splitting after higher layers, which lowers the commercial\n"
      "cost of split manufacturing (paper Sec. 1/6).\n");
  return 0;
}
