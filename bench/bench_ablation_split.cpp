// Ablation: attack strength as a function of the split layer, for the
// original and the protected layout of one benchmark. On original layouts
// higher splits expose ever fewer cut nets (cheap to attack); the protected
// layout keeps every randomized connection above the correction layer, so
// the attacker's CCR stays pinned near zero at every split below it —
// which is precisely the paper's "split after higher layers at no security
// loss" argument.
//
// The rig is a thin front-end over the sweep grid driver: the ablation is
// the cross product (one benchmark) × splits {2,3,4,5} × defenses ×
// attackers, so it inherits the sweep's determinism contracts (bit-identical
// for any --jobs), its shared-stage LayoutCache, and — with --store — the
// event-sourced result log (re-runs with --resume recompute nothing).
//
// Extra flags on top of bench/common.hpp:
//   --defenses=a,b     defense axis (default unprotected,proposed)
//   --attackers=a,b    attacker axis (default proximity,crouting)
//   --splits=a,b       split-layer axis (default 2,3,4,5)
//   --store=<path>     append results to an event-sourced JSONL log
//   --resume           skip cells already present in --store
#include "common.hpp"
#include "sweep/sweep.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(
      argc, argv,
      {"jobs", "splits", "defenses", "attackers", "store", "resume"});
  util::Args args(argc, argv);
  bench::print_header("Ablation: split layer vs attack outcome");

  sweep::Grid grid;
  grid.benchmarks = {suite.only.empty() ? "c1908" : suite.only.front()};
  grid.seeds = {suite.seed};
  grid.split_layers = {2, 3, 4, 5};
  grid.defenses = {sweep::Defense::Unprotected, sweep::Defense::Proposed};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  grid.scale = suite.scale;
  if (args.has("splits")) grid.set("splits", args.get("splits", ""));
  if (args.has("defenses")) grid.set("defenses", args.get("defenses", ""));
  if (args.has("attackers")) grid.set("attackers", args.get("attackers", ""));

  sweep::Options opts;
  opts.jobs = suite.jobs;
  opts.patterns = suite.patterns / 2;
  opts.store_path = args.get("store", "");
  opts.resume = args.get_bool("resume", false);

  const auto result = sweep::run(grid, opts);
  std::fputs(result.table().render().c_str(), stdout);
  std::printf(
      "\n%zu cells (%zu computed, %zu from store), jobs=%zu, %.0f ms\n",
      result.rows.size(), result.computed_cells, result.resumed_cells,
      result.jobs, result.wall_ms);
  return 0;
}
