// Table 5: network-flow proximity attack [5] vs routing-centric defenses on
// the ISCAS-85 suite (averaged over splits M3/M4/M5):
//   Pin swapping [3]        — a few real connection swaps, no lifting,
//   Routing perturbation [12] — selected nets elevated/detoured,
//   Proposed                — this paper's scheme.
//
// Expected shape: pin swapping leaves the bulk of connections recoverable
// (paper: 87% CCR); routing perturbation lands in between (paper: ~72%);
// the proposed scheme reaches 0% CCR / ~100% OER / ~40% HD.
//
// Like Table 4, a front-end over the sweep grid: every column is a
// per-(benchmark, defense) sweep::Mean over splits 3-5, bit-identical for
// any --jobs, with splits that have no open sink left out.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  using sweep::Defense;
  const auto suite = bench::parse_suite(argc, argv, {"jobs"});
  bench::print_header(
      "Table 5: proximity attack vs routing-perturbation defenses "
      "(ISCAS-85, averaged over splits M3/M4/M5)");

  sweep::Grid grid;
  grid.benchmarks = bench::pick(workloads::iscas85_names(), suite);
  grid.seeds = {suite.seed};
  grid.split_layers = {3, 4, 5};
  grid.defenses = {Defense::Unprotected, Defense::PinSwap,
                   Defense::RoutePerturb, Defense::Proposed};
  grid.scale = suite.scale;
  sweep::Options opts;
  opts.jobs = suite.jobs;
  opts.patterns = suite.patterns;
  const auto means = sweep::run(grid, opts).means();

  util::Table table({"Benchmark", "Orig CCR", "Orig HD", "PinSwap[3] CCR",
                     "PinSwap[3] HD", "RoutePerturb[12] CCR",
                     "RoutePerturb[12] OER", "RoutePerturb[12] HD", "Prop CCR",
                     "Prop OER", "Prop HD"});
  for (const auto& name : grid.benchmarks) {
    const auto mean = [&](Defense d) -> const sweep::Mean& {
      return means.at({name, d, sweep::Attacker::Proximity});
    };
    const auto& orig = mean(Defense::Unprotected);
    const auto& pin = mean(Defense::PinSwap);
    const auto& rp = mean(Defense::RoutePerturb);
    const auto& prop = mean(Defense::Proposed);
    table.add_row({name, orig.pct(orig.ccr), orig.pct(orig.hd),
                   pin.pct(pin.ccr), pin.pct(pin.hd), rp.pct(rp.ccr),
                   rp.pct(rp.oer), rp.pct(rp.hd), prop.pct(prop.ccr_protected),
                   prop.pct(prop.oer), prop.pct(prop.hd)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
