// Fig. 4: distribution of driver/sink distances for original (a), naively
// lifted (b), and proposed (c) layouts of superblue18. The paper shows
// scatter plots; we render ASCII histograms — the signature is identical:
// (a) and (b) concentrate near zero, (c) spreads to hundreds of microns.
#include "common.hpp"
#include "metrics/report.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  const auto suite = bench::parse_suite(argc, argv);
  bench::print_header("Fig. 4: driver/sink distance distribution (superblue18)");

  const std::string name =
      suite.only.empty() ? "superblue18" : suite.only.front();
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

  auto show = [&](const char* label, const place::Placement& pl) {
    const auto d = metrics::connection_distances(nl, pl, nets);
    const auto s = util::summarize(d);
    std::printf("--- %s (%zu connections, max %.1f um) ---\n", label, s.count,
                s.max);
    util::Histogram h(0.0, std::max(s.max, 1.0), 12);
    for (const double v : d) h.add(v);
    std::fputs(h.ascii(44).c_str(), stdout);
    std::printf("\n");
  };
  show("(a) Original", original.placement);
  show("(b) Naively lifted", lifted.layout.placement);
  show("(c) Proposed", design.layout.placement);
  return 0;
}
