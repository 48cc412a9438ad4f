// Table 4: network-flow proximity attack [5] vs placement-centric defenses
// on the ISCAS-85 suite. Metrics averaged over splits after M3, M4, M5 (the
// paper's setup). Columns:
//   Original          — unprotected layout,
//   PlacePerturb [5]  — selective gate-location perturbation,
//   Random/G-Color/G-Type1/G-Type2 [8] — Sengupta et al. strategies (CCR),
//   Proposed          — this paper's scheme (CCR on randomized connections,
//                       OER/HD of the attacker's recovered netlist).
//
// Expected shape: Original highly attackable (high CCR, low HD); placement
// perturbation helps marginally; the proposed scheme reaches 0% CCR with
// OER ~100% and HD ~40%.
//
// The bench is a front-end over the sweep grid (benchmarks × splits 3-5 ×
// the seven defenses above × the proximity attacker): every column is a
// per-(benchmark, defense) sweep::Mean, so the table is bit-identical for
// any --jobs, and a split with no open sink is left out of the means.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace sm;
  using sweep::Defense;
  const auto suite = bench::parse_suite(
      argc, argv, {"scale", "patterns", "quick", "jobs"});
  bench::print_header(
      "Table 4: proximity attack vs placement-perturbation defenses "
      "(ISCAS-85, averaged over splits M3/M4/M5)");

  sweep::Grid grid;
  grid.benchmarks = bench::pick(workloads::iscas85_names(), suite);
  grid.seeds = {suite.seed};
  grid.split_layers = {3, 4, 5};
  grid.defenses = {Defense::Unprotected, Defense::PlacePerturb,
                   Defense::Random,      Defense::GColor,
                   Defense::GType1,      Defense::GType2,
                   Defense::Proposed};
  grid.scale = suite.scale;
  sweep::Options opts;
  opts.jobs = suite.jobs;
  opts.patterns = suite.patterns;
  const auto means = sweep::run(grid, opts).means();

  util::Table table({"Benchmark", "Orig CCR", "Orig OER", "Orig HD",
                     "Perturb[5] CCR", "Perturb[5] HD", "Random[8] CCR",
                     "G-Color[8] CCR", "G-Type1[8] CCR", "G-Type2[8] CCR",
                     "Prop CCR", "Prop OER", "Prop HD"});
  // Benchmark averages of the Original and Proposed columns; `cells`
  // counts the benchmarks whose mean is not n/a.
  sweep::Mean avg_orig, avg_prop;
  const auto add = [](sweep::Mean& avg, const sweep::Mean& m, double ccr) {
    if (!m.cells) return;
    avg.ccr += ccr;
    avg.oer += m.oer;
    avg.hd += m.hd;
    ++avg.cells;
  };
  for (const auto& name : grid.benchmarks) {
    const auto mean = [&](Defense d) -> const sweep::Mean& {
      return means.at({name, d, sweep::Attacker::Proximity});
    };
    const auto ccr = [&](Defense d) { return mean(d).pct(mean(d).ccr); };
    const auto& orig = mean(Defense::Unprotected);
    const auto& pert = mean(Defense::PlacePerturb);
    const auto& prop = mean(Defense::Proposed);
    table.add_row({name, orig.pct(orig.ccr), orig.pct(orig.oer),
                   orig.pct(orig.hd), pert.pct(pert.ccr), pert.pct(pert.hd),
                   ccr(Defense::Random), ccr(Defense::GColor),
                   ccr(Defense::GType1), ccr(Defense::GType2),
                   prop.pct(prop.ccr_protected), prop.pct(prop.oer),
                   prop.pct(prop.hd)});
    add(avg_orig, orig, orig.ccr);
    add(avg_prop, prop, prop.ccr_protected);
  }
  if (!grid.benchmarks.empty()) {
    for (sweep::Mean* avg : {&avg_orig, &avg_prop}) {
      if (!avg->cells) continue;
      const double n = static_cast<double>(avg->cells);
      avg->ccr /= n;
      avg->oer /= n;
      avg->hd /= n;
    }
    table.add_separator();
    table.add_row({"Average", avg_orig.pct(avg_orig.ccr),
                   avg_orig.pct(avg_orig.oer), avg_orig.pct(avg_orig.hd), "",
                   "", "", "", "", "", avg_prop.pct(avg_prop.ccr),
                   avg_prop.pct(avg_prop.oer), avg_prop.pct(avg_prop.hd)});
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
