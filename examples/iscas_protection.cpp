// ISCAS-85 protection walkthrough with the paper's PPA budget loop, plus
// artifact export: the erroneous netlist as structural Verilog and the
// protected layout as (full and FEOL-split) DEF — the files the paper
// releases to the community.
//
// Run:  ./iscas_protection [--bench=c1908] [--budget=20] [--outdir=/tmp]
#include "core/defio.hpp"
#include "core/libgen.hpp"
#include "core/protect.hpp"
#include "netlist/verilog.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "workloads/generator.hpp"

#include <cstdio>
#include <fstream>

int main(int argc, char** argv) {
  using namespace sm;
  const util::Args args(argc, argv);
  args.reject_unknown({"bench", "budget", "outdir", "seed"});
  const std::string bench = args.get("bench", "c1908");
  const double budget = args.get_double("budget", 20.0);
  const std::string outdir = args.get("outdir", "/tmp");
  const auto seed = args.get_count("seed", 1);

  netlist::CellLibrary lib{6};
  const auto nl =
      workloads::generate(lib, workloads::iscas85_profile(bench), seed);

  core::FlowOptions flow;
  flow.lift_layer = 6;
  flow.placer.target_utilization = 0.45;
  flow.seed = seed;

  const auto original = core::layout_original(nl, flow);
  std::printf("original %s: power %.1f uW, delay %.0f ps, wire %.0f um\n",
              bench.c_str(), original.ppa.total_power_uw(),
              original.ppa.critical_path_ps, original.ppa.wirelength_um);

  // The Fig. 2 loop: randomize, place, route, evaluate; repeat while the
  // PPA budget (default 20% for ISCAS-85) is not expended.
  core::RandomizeOptions rand_opts;
  rand_opts.seed = seed;
  rand_opts.max_swaps = std::max<std::size_t>(8, nl.num_gates() / 40);
  const auto design =
      core::protect_with_budget(nl, rand_opts, flow, original.ppa, budget, 4);

  const double d_pow = util::pct_delta(original.ppa.total_power_uw(),
                                       design.layout.ppa.total_power_uw());
  const double d_dly = util::pct_delta(original.ppa.critical_path_ps,
                                       design.layout.ppa.critical_path_ps);
  std::printf(
      "protected within %.0f%% budget: %zu swaps, OER %.1f%%, HD %.1f%%, "
      "power +%.1f%%, delay +%.1f%%, area +0%%\n",
      budget, design.ledger.entries.size(), 100 * design.oer, 100 * design.hd,
      d_pow, d_dly);
  std::printf("netlist-level restoration check: %s\n",
              design.restored_ok ? "equivalent" : "FAILED");

  // Export artifacts.
  const std::string base = outdir + "/" + bench;
  {
    std::ofstream os(base + "_erroneous.v");
    netlist::write_verilog(design.erroneous, os);
  }
  {
    std::ofstream os(base + "_protected.def");
    core::write_def(design.erroneous, design.layout.placement,
                    design.layout.routing, design.layout.tasks, os);
  }
  {
    std::ofstream os(base + "_feol_m4.def");
    core::write_split_def(design.erroneous, design.layout.placement,
                          design.layout.routing, design.layout.tasks,
                          design.layout.num_net_tasks, 4, os);
  }
  {
    std::ofstream os(base + "_correction_cells.lib");
    core::write_correction_liberty(lib, os);
  }
  {
    std::ofstream os(base + "_correction_cells.lef");
    core::write_correction_lef(lib, os);
  }
  {
    std::ofstream os(base + "_restore.tcl");
    std::vector<std::string> instances;
    for (std::size_t i = 0; i < design.plan.cells.size(); ++i)
      instances.push_back("u_corr_" + std::to_string(i));
    core::write_restore_constraints(instances, os);
  }
  std::printf(
      "wrote %s_{erroneous.v, protected.def, feol_m4.def, "
      "correction_cells.lib, correction_cells.lef, restore.tcl}\n",
      base.c_str());
  return 0;
}
