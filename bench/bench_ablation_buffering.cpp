// Ablation: misleading drive strengths (paper Sec. 3).
//
// With drive-strength fixing enabled, long nets get large repeaters. On an
// original layout the attacker can exploit that (a BUFX8 hints at a distant
// sink); on the erroneous layout the same hint describes the *wrong*
// netlist. This bench measures attack CCR with and without the strength
// prior, on buffered original vs buffered protected layouts.
#include "attack/proximity.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv, {"patterns"});
  bench::print_header("Ablation: drive-strength hint (BUFX8 argument)");

  const std::string name = suite.only.empty() ? "c1908" : suite.only.front();
  netlist::CellLibrary lib{6};
  const auto nl =
      workloads::generate(lib, workloads::iscas85_profile(name), suite.seed);
  auto flow = sweep::task_flow(name, sweep::Workload::Iscas85, suite.seed,
                               suite.scale);
  flow.buffering = true;
  flow.buffering_opts.hpwl_threshold_um = 15.0;

  const auto original = core::layout_original(nl, flow);
  const auto design =
      core::protect(nl, sweep::task_randomize(suite.seed), flow);

  util::Table table(
      {"Layout", "Strength prior", "Split", "CCR", "OER", "HD"});
  for (const bool prior : {false, true}) {
    attack::ProximityOptions a;
    a.eval_patterns = suite.patterns / 2;
    a.use_strength_prior = prior;
    for (const int split : {3, 4}) {
      // The buffered layout's routes reference the repeater-sized netlist;
      // the attacker sees that sized netlist in the FEOL, and scoring uses
      // it as ground truth too (repeaters are functionally transparent).
      const auto& sized = original.physical(nl);
      const auto v0 =
          core::split_layout(sized, original.placement, original.routing,
                             original.tasks, original.num_net_tasks, split);
      const auto r0 = attack::proximity_attack(sized, sized,
                                               original.placement, v0,
                                               nullptr, a);
      table.add_row({"original", prior ? "on" : "off",
                     "M" + std::to_string(split),
                     util::Table::pct(100 * r0.ccr(), 1),
                     util::Table::pct(100 * r0.rates.oer, 1),
                     util::Table::pct(100 * r0.rates.hd, 1)});
      const auto vp = core::split_layout(
          design.erroneous, design.layout.placement, design.layout.routing,
          design.layout.tasks, design.layout.num_net_tasks, split);
      const auto rp =
          attack::proximity_attack(design.erroneous, design.restored,
                                   design.layout.placement, vp,
                                   &design.ledger, a);
      table.add_row({"proposed", prior ? "on" : "off",
                     "M" + std::to_string(split),
                     util::Table::pct(100 * rp.ccr_protected(), 1),
                     util::Table::pct(100 * rp.rates.oer, 1),
                     util::Table::pct(100 * rp.rates.hd, 1)});
    }
    table.add_separator();
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
