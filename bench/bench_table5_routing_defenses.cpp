// Table 5: network-flow proximity attack [5] vs routing-centric defenses on
// the ISCAS-85 suite (averaged over splits M3/M4/M5):
//   Pin swapping [3]        — a few real connection swaps, no lifting,
//   Routing perturbation [12] — selected nets elevated/detoured,
//   Proposed                — this paper's scheme.
//
// Expected shape: pin swapping leaves the bulk of connections recoverable
// (paper: 87% CCR); routing perturbation lands in between (paper: ~72%);
// the proposed scheme reaches 0% CCR / ~100% OER / ~40% HD.
#include "attack/proximity.hpp"
#include "common.hpp"

namespace {

using namespace sm;

struct Score {
  double ccr = 0, oer = 0, hd = 0;
};

Score attack_avg(const netlist::Netlist& feol, const netlist::Netlist& truth,
                 const core::LayoutResult& layout,
                 const core::SwapLedger* ledger, std::size_t patterns,
                 bool protected_ccr) {
  Score s;
  attack::ProximityOptions opts;
  opts.eval_patterns = patterns;
  for (const int split : {3, 4, 5}) {
    const auto view =
        core::split_layout(feol, layout.placement, layout.routing,
                           layout.tasks, layout.num_net_tasks, split);
    const auto res = attack::proximity_attack(feol, truth, layout.placement,
                                              view, ledger, opts);
    s.ccr += protected_ccr ? res.ccr_protected() : res.ccr();
    s.oer += res.rates.oer;
    s.hd += res.rates.hd;
  }
  s.ccr /= 3;
  s.oer /= 3;
  s.hd /= 3;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header(
      "Table 5: proximity attack vs routing-perturbation defenses "
      "(ISCAS-85, averaged over splits M3/M4/M5)");

  const auto names = bench::pick(workloads::iscas85_names(), suite);
  struct PerBench {
    Score so, ssw, srp, sp;
  };
  std::vector<PerBench> results(names.size());

  bench::for_each_benchmark(names, suite, [&](std::size_t i) {
    netlist::CellLibrary lib{6};
    const auto nl = workloads::generate(
        lib, workloads::iscas85_profile(names[i]), suite.seed);
    const auto flow =
        bench::apply_layout_flags(bench::iscas_flow(suite.seed), suite);
    PerBench& r = results[i];

    const auto original = core::layout_original(nl, flow);
    r.so = attack_avg(nl, nl, original, nullptr, suite.patterns, false);

    // [3]: swap roughly 2% of the nets' connections.
    const std::size_t swaps =
        std::max<std::size_t>(4, nl.num_nets() / 50);
    const auto pinswap = core::layout_pin_swapped(nl, flow, swaps, suite.seed);
    r.ssw = attack_avg(pinswap.erroneous, nl, pinswap.layout, &pinswap.ledger,
                       suite.patterns, false);

    // [12]: elevate 15% of the nets above M5.
    const auto rperturb =
        core::layout_routing_perturbed(nl, flow, 0.15, 6, suite.seed);
    r.srp = attack_avg(nl, nl, rperturb, nullptr, suite.patterns, false);

    const auto design =
        core::protect(nl, bench::default_randomize(suite.seed), flow);
    r.sp = attack_avg(design.erroneous, nl, design.layout, &design.ledger,
                      suite.patterns, true);
  });

  util::Table table({"Benchmark", "Orig CCR", "Orig HD", "PinSwap[3] CCR",
                     "PinSwap[3] HD", "RoutePerturb[12] CCR",
                     "RoutePerturb[12] OER", "RoutePerturb[12] HD", "Prop CCR",
                     "Prop OER", "Prop HD"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    const PerBench& r = results[i];
    table.add_row({names[i], util::Table::pct(100 * r.so.ccr, 1),
                   util::Table::pct(100 * r.so.hd, 1),
                   util::Table::pct(100 * r.ssw.ccr, 1),
                   util::Table::pct(100 * r.ssw.hd, 1),
                   util::Table::pct(100 * r.srp.ccr, 1),
                   util::Table::pct(100 * r.srp.oer, 1),
                   util::Table::pct(100 * r.srp.hd, 1),
                   util::Table::pct(100 * r.sp.ccr, 1),
                   util::Table::pct(100 * r.sp.oer, 1),
                   util::Table::pct(100 * r.sp.hd, 1)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
