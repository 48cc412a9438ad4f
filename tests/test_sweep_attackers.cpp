// Attacker-axis determinism and correctness contracts. Every attacker the
// sweep grid can schedule (proximity / crouting / sat) and every baseline
// defense must honor the same guarantees the proximity-only sweep shipped
// with: metrics bit-identical for jobs in {1, 2, 8}, resumed == scratch,
// merged sub-grid logs == whole grid — plus per-attacker row semantics
// (crouting's candidate-list metrics, the sat attacker's equivalence
// verdict) and the deterministic LayoutCache accounting when baseline
// defenses share one (bench, seed) placement.
#include "sweep/sweep.hpp"

#include "core/equivalence.hpp"
#include "sweep/store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace sm;

// Every Row field except wall_ms, bitwise — including the attacker-axis
// fields (attacker, els, equiv).
void expect_rows_equal_modulo_wall(const std::vector<sweep::Row>& a,
                                   const std::vector<sweep::Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].benchmark, b[i].benchmark) << "row " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "row " << i;
    EXPECT_EQ(a[i].split_layer, b[i].split_layer) << "row " << i;
    EXPECT_EQ(a[i].defense, b[i].defense) << "row " << i;
    EXPECT_EQ(a[i].attacker, b[i].attacker) << "row " << i;
    EXPECT_EQ(a[i].ccr, b[i].ccr) << "row " << i;
    EXPECT_EQ(a[i].ccr_protected, b[i].ccr_protected) << "row " << i;
    EXPECT_EQ(a[i].oer, b[i].oer) << "row " << i;
    EXPECT_EQ(a[i].hd, b[i].hd) << "row " << i;
    EXPECT_EQ(a[i].open_sinks, b[i].open_sinks) << "row " << i;
    EXPECT_EQ(a[i].swaps, b[i].swaps) << "row " << i;
    EXPECT_EQ(a[i].els, b[i].els) << "row " << i;
    EXPECT_EQ(a[i].equiv, b[i].equiv) << "row " << i;
  }
}

std::string strip_wall_column(const std::string& csv) {
  std::string out;
  std::istringstream in(csv);
  std::string line;
  while (std::getline(in, line)) {
    out += line.substr(0, line.rfind(','));
    out += '\n';
  }
  return out;
}

TEST(AttackerAxis, NamesRoundTrip) {
  EXPECT_EQ(sweep::attacker_from_string("proximity"),
            sweep::Attacker::Proximity);
  EXPECT_EQ(sweep::attacker_from_string("crouting"), sweep::Attacker::CRouting);
  EXPECT_EQ(sweep::attacker_from_string("sat"), sweep::Attacker::Sat);
  EXPECT_STREQ(sweep::to_string(sweep::Attacker::Proximity), "proximity");
  EXPECT_STREQ(sweep::to_string(sweep::Attacker::CRouting), "crouting");
  EXPECT_STREQ(sweep::to_string(sweep::Attacker::Sat), "sat");
  EXPECT_THROW(sweep::attacker_from_string("psychic"), std::invalid_argument);
}

TEST(AttackerAxis, GridSpecParsesAttackerDimension) {
  const auto g = sweep::Grid::parse(
      "benchmarks=c432;attackers=proximity,crouting,sat");
  ASSERT_EQ(g.attackers.size(), 3u);
  EXPECT_EQ(g.attackers[0], sweep::Attacker::Proximity);
  EXPECT_EQ(g.attackers[1], sweep::Attacker::CRouting);
  EXPECT_EQ(g.attackers[2], sweep::Attacker::Sat);
  EXPECT_EQ(g.combinations(),
            1u * 1u * g.split_layers.size() * g.defenses.size() * 3u);
  EXPECT_THROW(sweep::Grid::parse("attackers=voodoo"), std::invalid_argument);
  // Default grid stays proximity-only — the pre-axis behavior.
  EXPECT_EQ(sweep::Grid{}.attackers,
            (std::vector<sweep::Attacker>{sweep::Attacker::Proximity}));
}

TEST(AttackerAxis, BaselineDefenseNamesRoundTrip) {
  using sweep::Defense;
  const std::pair<const char*, Defense> names[] = {
      {"place-perturb", Defense::PlacePerturb},
      {"random", Defense::Random},
      {"g-color", Defense::GColor},
      {"g-type1", Defense::GType1},
      {"g-type2", Defense::GType2},
      {"pin-swap", Defense::PinSwap},
      {"route-perturb", Defense::RoutePerturb},
      {"route-blockage", Defense::RouteBlockage},
  };
  for (const auto& [name, d] : names) {
    EXPECT_EQ(sweep::defense_from_string(name), d) << name;
    EXPECT_STREQ(sweep::to_string(d), name);
    EXPECT_TRUE(sweep::is_baseline(d)) << name;
  }
  EXPECT_FALSE(sweep::is_baseline(Defense::Unprotected));
  EXPECT_FALSE(sweep::is_baseline(Defense::Proposed));
}

// The tentpole contract: one grid spanning both defenses and all three
// attackers yields bit-identical metrics for jobs in {1, 2, 8}. Mirrors
// test_sweep's proximity-only contract across the new axis.
TEST(AttackerAxis, JobsInvarianceAcrossAttackers) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting,
                    sweep::Attacker::Sat};
  sweep::Options opts;
  opts.patterns = 800;

  opts.jobs = 1;
  const auto serial = sweep::run(grid, opts);
  ASSERT_EQ(serial.rows.size(), grid.combinations());

  for (const std::size_t jobs : {2u, 8u}) {
    sweep::Options popts = opts;
    popts.jobs = jobs;
    const auto parallel = sweep::run(grid, popts);
    expect_rows_equal_modulo_wall(serial.rows, parallel.rows);
  }

  // Attacker is the innermost row coordinate.
  ASSERT_EQ(serial.rows.size(), 6u);
  EXPECT_EQ(serial.rows[0].attacker, sweep::Attacker::Proximity);
  EXPECT_EQ(serial.rows[1].attacker, sweep::Attacker::CRouting);
  EXPECT_EQ(serial.rows[2].attacker, sweep::Attacker::Sat);
  EXPECT_EQ(serial.rows[0].defense, sweep::Defense::Unprotected);
  EXPECT_EQ(serial.rows[3].defense, sweep::Defense::Proposed);

  for (const auto& row : serial.rows) {
    switch (row.attacker) {
      case sweep::Attacker::Proximity:
        // No equivalence check ran: the verdict stays N/A.
        EXPECT_EQ(row.equiv, -1);
        EXPECT_EQ(row.els, 0.0);
        break;
      case sweep::Attacker::CRouting:
        // Candidate confinement only — nothing recovered to simulate.
        EXPECT_EQ(row.oer, 0.0);
        EXPECT_EQ(row.hd, 0.0);
        EXPECT_EQ(row.equiv, -1);
        break;
      case sweep::Attacker::Sat:
        // The recovered netlist was equivalence-checked: 1/0/2, never N/A.
        EXPECT_NE(row.equiv, -1);
        break;
    }
  }

  // Verdict semantics on this grid: the unprotected layout of c432 routes
  // entirely below M4 (nothing to recover — the attack returns the original
  // wiring, provably Equivalent), while the proposed defense's erroneous
  // FEOL plus attack errors yield an Inequivalent recovery.
  const auto& unprot_sat = serial.rows[2];
  const auto& prop_sat = serial.rows[5];
  EXPECT_EQ(unprot_sat.equiv, 1);
  EXPECT_EQ(prop_sat.equiv, 0);
  // Sat rows carry the proximity metrics too (same matching, same seed).
  EXPECT_EQ(prop_sat.ccr, serial.rows[3].ccr);
  EXPECT_EQ(prop_sat.oer, serial.rows[3].oer);

  // CRouting against the proposed defense: every lifted sink is a vpin with
  // a bounded candidate list.
  const auto& prop_cr = serial.rows[4];
  EXPECT_GE(prop_cr.open_sinks, 1u);
  EXPECT_GE(prop_cr.els, 1.0);
  EXPECT_GE(prop_cr.ccr, 0.0);
  EXPECT_LE(prop_cr.ccr, 1.0);
}

// Baseline defenses through the sweep: jobs-invariant metrics AND
// deterministic shared-stage accounting. Three defenses of one (bench,
// seed) trigger exactly one netlist build and one placement — the
// placement-keeping baselines (place-perturb, route-perturb) reuse the
// cached stage-1 product instead of re-placing.
TEST(AttackerAxis, BaselineDefensesShareThePlacementStage) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4};
  grid.defenses = {sweep::Defense::Unprotected, sweep::Defense::PlacePerturb,
                   sweep::Defense::RoutePerturb};
  sweep::Options opts;
  opts.patterns = 600;

  opts.jobs = 1;
  const auto serial = sweep::run(grid, opts);
  opts.jobs = 8;
  const auto parallel = sweep::run(grid, opts);
  expect_rows_equal_modulo_wall(serial.rows, parallel.rows);

  // One (bench, seed) group: netlist and placement built once; the base
  // route belongs to Unprotected alone. Calls: 3 netlist (2 hits), 3
  // placed (2 hits — Unprotected's base_layout places internally, the two
  // baselines reuse), 1 base_layout (0 hits). Deterministic for any jobs.
  for (const auto* r : {&serial, &parallel}) {
    EXPECT_EQ(r->cache_stats.netlists, 1u);
    EXPECT_EQ(r->cache_stats.placements, 1u);
    EXPECT_EQ(r->cache_stats.base_routes, 1u);
    EXPECT_EQ(r->cache_stats.hits, 4u);
  }

  // The perturbation must actually change the attack surface relative to
  // the unprotected reference on at least one metric family: route-perturb
  // lifts nets above the split by construction.
  const auto& unprot = serial.rows[0];
  const auto& rperturb = serial.rows[2];
  EXPECT_EQ(rperturb.defense, sweep::Defense::RoutePerturb);
  EXPECT_GT(rperturb.open_sinks, unprot.open_sinks);
}

// Resume with attacker cells: a store logged for the crouting half of the
// grid resumes bit-identically into the full run. Mirrors test_sweep's
// ResumedEqualsFromScratch across the new axis.
TEST(AttackerAxis, ResumedEqualsFromScratchWithAttackerCells) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4, 5};
  grid.defenses = {sweep::Defense::Proposed};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  sweep::Options opts;
  opts.patterns = 800;
  opts.jobs = 2;

  const auto scratch = sweep::run(grid, opts);
  ASSERT_EQ(scratch.rows.size(), 4u);

  const std::string store = testing::TempDir() + "sm_attacker_resume.jsonl";
  std::remove(store.c_str());

  // "Interrupted" run: only the M4 cells (both attackers) completed.
  sweep::Grid partial = grid;
  partial.split_layers = {4};
  sweep::Options popts = opts;
  popts.store_path = store;
  const auto first = sweep::run(partial, popts);
  EXPECT_EQ(first.computed_cells, 2u);

  sweep::Options ropts = opts;
  ropts.store_path = store;
  ropts.resume = true;
  const auto resumed = sweep::run(grid, ropts);
  EXPECT_EQ(resumed.resumed_cells, 2u);
  EXPECT_EQ(resumed.computed_cells, 2u);
  expect_rows_equal_modulo_wall(scratch.rows, resumed.rows);
  EXPECT_EQ(strip_wall_column(scratch.to_csv()),
            strip_wall_column(resumed.to_csv()));
  std::remove(store.c_str());
}

// Merged sub-grid logs == whole grid for a >= 2 defenses x >= 2 attackers
// grid, one sub-grid per defense: CSV byte-identical modulo wall.
TEST(AttackerAxis, SubGridLogsMaterializeToWholeGridAcrossAttackers) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  sweep::Options opts;
  opts.patterns = 800;
  opts.jobs = 2;

  const auto whole = sweep::run(grid, opts);
  ASSERT_EQ(whole.rows.size(), 4u);  // 2 defenses x 2 attackers

  std::vector<std::string> logs;
  for (const auto defense : grid.defenses) {
    sweep::Grid sub = grid;
    sub.defenses = {defense};
    sweep::Options sopts = opts;
    sopts.store_path = testing::TempDir() + "sm_attacker_" +
                       sweep::to_string(defense) + ".jsonl";
    std::remove(sopts.store_path.c_str());
    const auto part = sweep::run(sub, sopts);
    EXPECT_EQ(part.computed_cells, 2u);  // one task: 2 attackers
    logs.push_back(sopts.store_path);
  }

  const auto store =
      sweep::load_store({logs[1], logs[0]}, /*must_exist=*/true);
  EXPECT_EQ(store.records.size(), 4u);
  const auto mat = sweep::materialize(grid, opts, store);
  EXPECT_TRUE(mat.missing.empty());
  expect_rows_equal_modulo_wall(whole.rows, mat.result.rows);
  EXPECT_EQ(strip_wall_column(whole.to_csv()),
            strip_wall_column(mat.result.to_csv()));
  for (const auto& log : logs) std::remove(log.c_str());
}

// A synthetic-ladder bench flows through the sweep like any published
// profile (workload detection, superblue-style flow tuning, store hashing).
TEST(AttackerAxis, SyntheticBenchSweepsAndResumes) {
  sweep::Grid grid;
  grid.benchmarks = {"synth1k"};
  grid.seeds = {1};
  grid.split_layers = {5};
  grid.defenses = {sweep::Defense::Unprotected};
  grid.attackers = {sweep::Attacker::CRouting};
  grid.scale = 0.25;  // 250 gates: smoke-sized
  sweep::Options opts;
  opts.patterns = 400;

  const auto res = sweep::run(grid, opts);
  ASSERT_EQ(res.rows.size(), 1u);
  EXPECT_EQ(res.rows[0].benchmark, "synth1k");
  EXPECT_EQ(res.rows[0].attacker, sweep::Attacker::CRouting);

  const std::string store = testing::TempDir() + "sm_synth_store.jsonl";
  std::remove(store.c_str());
  sweep::Options sopts = opts;
  sopts.store_path = store;
  sweep::run(grid, sopts);
  sopts.resume = true;
  const auto resumed = sweep::run(grid, sopts);
  EXPECT_EQ(resumed.resumed_cells, 1u);
  EXPECT_EQ(resumed.computed_cells, 0u);
  expect_rows_equal_modulo_wall(res.rows, resumed.rows);
  std::remove(store.c_str());
}

// CSV and JSON exports carry the attacker axis; the CSV schema ends in
// task_wall_ms so wall-stripping tools (and CI's `cut`) stay one-column.
TEST(AttackerAxis, ExportsCarryAttackerElsEquiv) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4};
  grid.defenses = {sweep::Defense::Unprotected};
  grid.attackers = {sweep::Attacker::CRouting, sweep::Attacker::Sat};
  sweep::Options opts;
  opts.patterns = 400;
  const auto res = sweep::run(grid, opts);
  ASSERT_EQ(res.rows.size(), 2u);

  const auto csv = res.to_csv();
  EXPECT_NE(csv.find("benchmark,seed,split_layer,defense,attacker,ccr,"
                     "ccr_protected,oer,hd,open_sinks,swaps,els,equiv,"
                     "task_wall_ms"),
            std::string::npos);
  EXPECT_NE(csv.find(",crouting,"), std::string::npos);
  EXPECT_NE(csv.find(",sat,"), std::string::npos);

  const auto json = res.to_json();
  EXPECT_NE(json.find("\"attacker\": \"crouting\""), std::string::npos);
  EXPECT_NE(json.find("\"attacker\": \"sat\""), std::string::npos);
  EXPECT_NE(json.find("\"els\""), std::string::npos);
  EXPECT_NE(json.find("\"equiv\""), std::string::npos);
}

// The rendered tables print n/a for a metric a cell does not have: OER and
// HD for crouting, which recovers no netlist, E[LS] for every attacker but
// crouting, and CCR and E[LS] over no open sink (c432's unprotected layout
// leaves none at M4). The rows keep their values (0), as CSV, JSON and the
// store read them.
TEST(AttackerAxis, TablesPrintNaForMetricsACellLacks) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {3, 4};
  grid.defenses = {sweep::Defense::Unprotected};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  sweep::Options opts;
  opts.patterns = 400;
  const auto res = sweep::run(grid, opts);
  ASSERT_EQ(res.rows.size(), 4u);
  ASSERT_GT(res.rows[0].open_sinks, 0u);
  ASSERT_GT(res.rows[1].open_sinks, 0u);
  ASSERT_EQ(res.rows[3].open_sinks, 0u);
  EXPECT_EQ(res.rows[1].oer, 0.0);
  EXPECT_EQ(res.rows[1].hd, 0.0);
  EXPECT_EQ(res.rows[0].els, 0.0);

  // The trimmed cells of every table line naming `attacker`, in order.
  auto lines_of = [](const std::string& table, const std::string& attacker) {
    std::vector<std::vector<std::string>> out;
    std::istringstream in(table);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find("| " + attacker + " ") == std::string::npos) continue;
      std::vector<std::string> cells;
      std::istringstream fields(line.substr(1));
      std::string cell;
      while (std::getline(fields, cell, '|')) {
        const auto b = cell.find_first_not_of(' ');
        const auto e = cell.find_last_not_of(' ');
        cells.push_back(b == std::string::npos ? ""
                                               : cell.substr(b, e - b + 1));
      }
      out.push_back(std::move(cells));
    }
    return out;
  };

  // Columns: Benchmark, Seed, Split, Defense, Attacker, CCR, CCR(rand),
  // OER, HD, Open sinks, E[LS], Equiv, Task ms. Lines run M3, then M4.
  const auto table = res.table().render();
  const auto prox = lines_of(table, "proximity");
  const auto crout = lines_of(table, "crouting");
  ASSERT_EQ(prox.size(), 2u) << table;
  ASSERT_EQ(crout.size(), 2u) << table;
  for (const auto& cells : {prox[0], prox[1], crout[0], crout[1]})
    ASSERT_EQ(cells.size(), 13u) << table;
  EXPECT_NE(prox[0][7], "n/a");
  EXPECT_NE(prox[0][8], "n/a");
  EXPECT_EQ(prox[0][10], "n/a");
  EXPECT_EQ(crout[0][7], "n/a");
  EXPECT_EQ(crout[0][8], "n/a");
  EXPECT_NE(crout[0][10], "n/a");
  EXPECT_NE(crout[0][5], "n/a");  // crouting's CCR is its match-in-list
  EXPECT_EQ(crout[1][5], "n/a");
  EXPECT_EQ(crout[1][10], "n/a");

  // Columns: Benchmark, Defense, Attacker, CCR, CCR(rand), OER, HD, Cells.
  const auto summary = res.summary().render();
  const auto prox_mean = lines_of(summary, "proximity");
  const auto crout_mean = lines_of(summary, "crouting");
  ASSERT_EQ(prox_mean.size(), 1u) << summary;
  ASSERT_EQ(crout_mean.size(), 1u) << summary;
  ASSERT_EQ(prox_mean[0].size(), 8u) << summary;
  ASSERT_EQ(crout_mean[0].size(), 8u) << summary;
  EXPECT_NE(prox_mean[0][5], "n/a");
  EXPECT_NE(prox_mean[0][6], "n/a");
  EXPECT_NE(crout_mean[0][3], "n/a");
  EXPECT_EQ(crout_mean[0][5], "n/a");
  EXPECT_EQ(crout_mean[0][6], "n/a");
}

}  // namespace
