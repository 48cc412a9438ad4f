// Attack anatomy: what each published hint contributes. Runs the
// network-flow proximity attack on an original layout with hints toggled —
// loops, load capacitance, dangling-wire direction, track alignment — and
// across split layers, showing why higher splits are cheaper to attack on
// unprotected layouts yet useless against the proposed defense.
//
// Run:  ./attack_study [--bench=c1355] [--seed=3]
#include "attack/proximity.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workloads/generator.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace sm;
  const util::Args args(argc, argv);
  args.reject_unknown({"bench", "seed"});
  const std::string bench = args.get("bench", "c1355");
  const auto seed = args.get_count("seed", 3);

  netlist::CellLibrary lib{6};
  const auto nl =
      workloads::generate(lib, workloads::iscas85_profile(bench), seed);
  core::FlowOptions flow;
  flow.placer.target_utilization = 0.45;
  flow.seed = seed;
  const auto layout = core::layout_original(nl, flow);

  struct Variant {
    const char* name;
    attack::ProximityOptions opts;
  };
  attack::ProximityOptions base;
  base.eval_patterns = 20000;
  std::vector<Variant> variants;
  variants.push_back({"all hints", base});
  {
    auto o = base;
    o.use_direction = false;
    variants.push_back({"no direction hint", o});
  }
  {
    auto o = base;
    o.track_bonus = 1.0;
    variants.push_back({"no track alignment", o});
  }
  {
    auto o = base;
    o.use_load = false;
    variants.push_back({"no load constraint", o});
  }
  {
    auto o = base;
    o.use_loops = false;
    variants.push_back({"no loop avoidance", o});
  }
  {
    auto o = base;
    o.candidates_per_sink = 2;
    variants.push_back({"2 candidates/sink", o});
  }

  util::Table table({"Variant", "Split", "Open sinks", "CCR", "HD"});
  for (const auto& v : variants) {
    for (const int split : {3, 4, 5}) {
      const auto view =
          core::split_layout(nl, layout.placement, layout.routing,
                             layout.tasks, layout.num_net_tasks, split);
      const auto res = attack::proximity_attack(nl, nl, layout.placement,
                                                view, nullptr, v.opts);
      table.add_row({v.name, "M" + std::to_string(split),
                     std::to_string(res.open_sinks),
                     util::Table::pct(100 * res.ccr(), 1),
                     util::Table::pct(100 * res.rates.hd, 1)});
    }
    table.add_separator();
  }
  std::fputs(table.render().c_str(), stdout);

  // The same attack against the proposed defense, for contrast.
  core::RandomizeOptions rand_opts;
  rand_opts.seed = seed;
  const auto design = core::protect(nl, rand_opts, flow);
  const auto view = core::split_layout(
      design.erroneous, design.layout.placement, design.layout.routing,
      design.layout.tasks, design.layout.num_net_tasks, 4);
  const auto res = attack::proximity_attack(
      design.erroneous, nl, design.layout.placement, view, &design.ledger,
      base);
  std::printf("\nagainst the proposed defense (all hints, split M4): "
              "CCR(randomized) %.1f%%, OER %.1f%%, HD %.1f%%\n",
              100 * res.ccr_protected(), 100 * res.rates.oer,
              100 * res.rates.hd);
  return 0;
}
