// Fig. 6: PPA overheads (die area, power, delay) of the proposed scheme on
// ISCAS-85, contrasted with the Sengupta et al. [8] randomization
// strategies. The proposed scheme uses the paper's 20% PPA budget loop.
//
// Expected shape: zero area overhead for the proposed scheme (correction
// cells have no device-layer footprint); power/delay overheads bounded by
// the budget; the [8]-style strategies cost more because they fight the
// placer (longer wires everywhere instead of targeted lifting).
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header(
      "Fig. 6: PPA overheads vs [8] (ISCAS-85, 20% budget for Proposed)");

  util::Table table({"Benchmark", "Prop dArea", "Prop dPower", "Prop dDelay",
                     "[8]Random dPower", "[8]Random dDelay",
                     "[8]G-Type1 dPower", "[8]G-Type1 dDelay"});
  double pa = 0, pp = 0, pd = 0, rp = 0, rd = 0;
  int count = 0;

  for (const auto& name : bench::pick(workloads::iscas85_names(), suite)) {
    netlist::CellLibrary lib{6};
    const auto nl =
        workloads::generate(lib, workloads::iscas85_profile(name), suite.seed);
    const auto flow = sweep::task_flow(name, sweep::Workload::Iscas85,
                                       suite.seed, suite.scale);

    const auto placed = core::place_design(nl, flow);
    const auto original = core::route_design(nl, placed, flow);
    core::RandomizeOptions r = sweep::task_randomize(suite.seed);
    r.max_swaps = std::max<std::size_t>(4, nl.num_gates() / 40);
    const auto design =
        core::protect_with_budget(nl, r, flow, original.ppa, 20.0, 3);

    const auto rand8 = core::layout_placement_perturbed(
        nl, flow, placed, core::PerturbStrategy::Random, 0.25, suite.seed,
        0.2);
    const auto gt1 = core::layout_placement_perturbed(
        nl, flow, placed, core::PerturbStrategy::GType1, 0.25, suite.seed,
        0.2);

    const double d_area = util::pct_delta(original.ppa.die_area_um2,
                                          design.layout.ppa.die_area_um2);
    const double d_pow = util::pct_delta(original.ppa.total_power_uw(),
                                         design.layout.ppa.total_power_uw());
    const double d_dly = util::pct_delta(original.ppa.critical_path_ps,
                                         design.layout.ppa.critical_path_ps);
    const double r_pow = util::pct_delta(original.ppa.total_power_uw(),
                                         rand8.ppa.total_power_uw());
    const double r_dly = util::pct_delta(original.ppa.critical_path_ps,
                                         rand8.ppa.critical_path_ps);
    const double g_pow = util::pct_delta(original.ppa.total_power_uw(),
                                         gt1.ppa.total_power_uw());
    const double g_dly = util::pct_delta(original.ppa.critical_path_ps,
                                         gt1.ppa.critical_path_ps);

    table.add_row({name, util::Table::pct(d_area, 2),
                   util::Table::pct(d_pow, 1), util::Table::pct(d_dly, 1),
                   util::Table::pct(r_pow, 1), util::Table::pct(r_dly, 1),
                   util::Table::pct(g_pow, 1), util::Table::pct(g_dly, 1)});
    pa += d_area;
    pp += d_pow;
    pd += d_dly;
    rp += r_pow;
    rd += r_dly;
    ++count;
  }
  if (count > 0) {
    table.add_separator();
    table.add_row({"Average", util::Table::pct(pa / count, 2),
                   util::Table::pct(pp / count, 1),
                   util::Table::pct(pd / count, 1),
                   util::Table::pct(rp / count, 1),
                   util::Table::pct(rd / count, 1), "", ""});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
