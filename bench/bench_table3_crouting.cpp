// Table 3: crouting attack [6] on superblue layouts split after M3 (the
// paper splits below the correction pins): #vpins and average
// candidate-list size E[LS] for bounding boxes of 15/30/45 um (plus
// match-in-list, which the attack uses internally). Expected shape: the
// proposed layouts expose more vpins and (usually) larger candidate lists
// than original/lifted ones — every seemingly small E[LS] increase is a
// polynomial-scale solution-space blowup.
#include "attack/crouting.hpp"
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header("Table 3: crouting attack (vpins and E[LS])");

  util::Table table({"Benchmark", "Layout", "#VPins", "E[LS] 15", "E[LS] 30",
                     "E[LS] 45", "Match 15", "Match 45"});
  // The paper's million-gate originals expose vpins even at M7/M8 splits;
  // our scaled clones route unprotected nets entirely below M5, so an upper
  // split would leave the original layouts with zero vpins ("N/A"). Split
  // after M3 instead: all three layouts expose vpins there, and the lifted/
  // proposed nets (pins in M8) are always cut.
  const int split_layer = 3;

  for (const auto& name : bench::pick(workloads::superblue_names(), suite)) {
    const auto spec = workloads::superblue_profile(name, suite.scale);
    netlist::CellLibrary lib{8};
    const auto nl = workloads::generate(lib, spec, suite.seed);
    const auto flow = sweep::task_flow(name, sweep::Workload::Superblue,
                                       suite.seed, suite.scale);

    const auto design =
        core::protect(nl, sweep::task_randomize(suite.seed), flow);
    const auto nets = design.ledger.protected_nets();
    const auto original = core::layout_original(nl, flow);
    const auto lifted = core::layout_naive_lift(nl, nets, flow);

    auto row = [&](const char* label, const netlist::Netlist& feol_nl,
                   const core::LayoutResult& layout) {
      const auto view =
          core::split_layout(feol_nl, layout.placement, layout.routing,
                             layout.tasks, layout.num_net_tasks, split_layer);
      const auto res = attack::crouting_attack(view);
      if (res.failed) {
        table.add_row({name, label, "N/A", "N/A", "N/A", "N/A", "N/A", "N/A"});
        return;
      }
      table.add_row({name, label, util::Table::count(res.num_vpins),
                     util::Table::num(res.candidate_list_size[0], 2),
                     util::Table::num(res.candidate_list_size[1], 2),
                     util::Table::num(res.candidate_list_size[2], 2),
                     util::Table::pct(100 * res.match_in_list[0], 1),
                     util::Table::pct(100 * res.match_in_list[2], 1)});
    };
    row("Original", nl, original);
    row("Lifted", nl, lifted.layout);
    row("Proposed", design.erroneous, design.layout);
    table.add_separator();
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
