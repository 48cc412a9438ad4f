// Tests for the parallel attack-sweep driver: grid spec parsing, empty-grid
// edge cases, export formats, and the determinism guarantees — CCR/OER/HD
// bit-identical between --jobs=1 and --jobs=8, between a resumed and a
// from-scratch run, and between merged sub-grid logs and the whole grid.
#include "sweep/sweep.hpp"

#include "sweep/store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

namespace {

using namespace sm;

// Every Row field except wall_ms, bitwise — the resume/sub-grid
// determinism contract explicitly excludes wall time (task-granular
// provenance).
void expect_rows_equal_modulo_wall(const std::vector<sweep::Row>& a,
                                   const std::vector<sweep::Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].benchmark, b[i].benchmark) << "row " << i;
    EXPECT_EQ(a[i].seed, b[i].seed) << "row " << i;
    EXPECT_EQ(a[i].split_layer, b[i].split_layer) << "row " << i;
    EXPECT_EQ(a[i].defense, b[i].defense) << "row " << i;
    EXPECT_EQ(a[i].ccr, b[i].ccr) << "row " << i;
    EXPECT_EQ(a[i].ccr_protected, b[i].ccr_protected) << "row " << i;
    EXPECT_EQ(a[i].oer, b[i].oer) << "row " << i;
    EXPECT_EQ(a[i].hd, b[i].hd) << "row " << i;
    EXPECT_EQ(a[i].open_sinks, b[i].open_sinks) << "row " << i;
    EXPECT_EQ(a[i].swaps, b[i].swaps) << "row " << i;
    EXPECT_EQ(a[i].attacker, b[i].attacker) << "row " << i;
    EXPECT_EQ(a[i].els, b[i].els) << "row " << i;
    EXPECT_EQ(a[i].equiv, b[i].equiv) << "row " << i;
  }
}

// Drop the trailing wall_ms column from every CSV line (it is the last
// column — the same `cut -d, -f1-10` idiom CI uses for byte comparisons).
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

TEST(SweepGrid, ParsesFullSpec) {
  const auto g = sweep::Grid::parse(
      "benchmarks=c432,c880;seeds=1,2;splits=3,5;defenses=proposed;"
      "scale=0.05");
  EXPECT_EQ(g.benchmarks, (std::vector<std::string>{"c432", "c880"}));
  EXPECT_EQ(g.seeds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(g.split_layers, (std::vector<int>{3, 5}));
  ASSERT_EQ(g.defenses.size(), 1u);
  EXPECT_EQ(g.defenses[0], sweep::Defense::Proposed);
  EXPECT_DOUBLE_EQ(g.scale, 0.05);
  EXPECT_EQ(g.combinations(), 2u * 2u * 2u * 1u);
}

TEST(SweepGrid, OmittedKeysKeepDefaults) {
  const auto g = sweep::Grid::parse("benchmarks=c432");
  EXPECT_EQ(g.seeds, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(g.split_layers, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(g.defenses.size(), 2u);
}

TEST(SweepGrid, SkipsEmptyListEntries) {
  const auto g = sweep::Grid::parse("benchmarks=c432,,c880,;seeds=7,");
  EXPECT_EQ(g.benchmarks, (std::vector<std::string>{"c432", "c880"}));
  EXPECT_EQ(g.seeds, (std::vector<std::uint64_t>{7}));
}

TEST(SweepGrid, RejectsMalformedSpecs) {
  EXPECT_THROW(sweep::Grid::parse("bogus-key=1"), std::invalid_argument);
  EXPECT_THROW(sweep::Grid::parse("no-equals"), std::invalid_argument);
  EXPECT_THROW(sweep::Grid::parse("seeds=abc"), std::invalid_argument);
  EXPECT_THROW(sweep::Grid::parse("defenses=voodoo"), std::invalid_argument);
  EXPECT_THROW(sweep::Grid::parse("scale=much"), std::invalid_argument);
  // Trailing garbage must not be silently truncated (stoi-style parsing).
  EXPECT_THROW(sweep::Grid::parse("splits=4junk"), std::invalid_argument);
  EXPECT_THROW(sweep::Grid::parse("seeds=-1"), std::invalid_argument);
  EXPECT_THROW(sweep::Grid::parse("scale=0.05x"), std::invalid_argument);
}

TEST(SweepGrid, SetSharesTheValidatedPathWithParse) {
  sweep::Grid g;
  g.set("splits", "3,5,");
  EXPECT_EQ(g.split_layers, (std::vector<int>{3, 5}));
  g.set("seeds", "11");
  EXPECT_EQ(g.seeds, (std::vector<std::uint64_t>{11}));
  g.set("split-layers", "4");  // alias of "splits"
  EXPECT_EQ(g.split_layers, (std::vector<int>{4}));
  EXPECT_THROW(g.set("splits", "4junk"), std::invalid_argument);
  EXPECT_THROW(g.set("wat", "1"), std::invalid_argument);
}

TEST(SweepGrid, SetRejectsBadValues) {
  sweep::Grid g;
  EXPECT_THROW(g.set("defenses", "fortress"), std::invalid_argument);
  EXPECT_THROW(g.set("seeds", "1,two"), std::invalid_argument);
  EXPECT_THROW(g.set("seeds", "0x10"), std::invalid_argument);
  EXPECT_THROW(g.set("scale", "1e"), std::invalid_argument);
  EXPECT_THROW(g.set("scale", ""), std::invalid_argument);
  EXPECT_THROW(g.set("scale", "nan"), std::invalid_argument);
  EXPECT_THROW(g.set("scale", "inf"), std::invalid_argument);
  // Split layers the stack cannot cut after, checked before narrowing to
  // int (2^32 + 3 must not become M3).
  EXPECT_THROW(g.set("splits", "0"), std::invalid_argument);
  EXPECT_THROW(g.set("splits", "10"), std::invalid_argument);
  EXPECT_THROW(g.set("splits", "4294967299"), std::invalid_argument);
  // An empty value empties the dimension (a zero-cell grid, not an error).
  g.set("seeds", "");
  EXPECT_TRUE(g.seeds.empty());
  EXPECT_EQ(g.combinations(), 0u);
}

TEST(SweepDefense, RoundTripsNames) {
  EXPECT_EQ(sweep::defense_from_string("unprotected"),
            sweep::Defense::Unprotected);
  EXPECT_EQ(sweep::defense_from_string("original"),
            sweep::Defense::Unprotected);
  EXPECT_EQ(sweep::defense_from_string("proposed"), sweep::Defense::Proposed);
  EXPECT_EQ(sweep::defense_from_string("protected"), sweep::Defense::Proposed);
  EXPECT_STREQ(sweep::to_string(sweep::Defense::Proposed), "proposed");
}

TEST(Sweep, EmptyGridProducesEmptyResult) {
  sweep::Grid grid;  // no benchmarks
  const auto res = sweep::run(grid, {});
  EXPECT_TRUE(res.rows.empty());
  EXPECT_EQ(grid.combinations(), 0u);
  // Renderers and exporters must cope with zero rows.
  EXPECT_FALSE(res.table().render().empty());
  EXPECT_FALSE(res.summary().render().empty());
  EXPECT_NE(res.to_csv().find("benchmark,seed"), std::string::npos);
  EXPECT_NE(res.to_json().find("\"rows\": []"), std::string::npos);
}

TEST(Sweep, EmptySplitListProducesEmptyResult) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.split_layers.clear();
  const auto res = sweep::run(grid, {});
  EXPECT_TRUE(res.rows.empty());
}

TEST(Sweep, UnknownBenchmarkThrowsBeforeRunning) {
  sweep::Grid grid;
  grid.benchmarks = {"c432", "c9999"};
  EXPECT_THROW(sweep::run(grid, {}), std::invalid_argument);
}

// The acceptance criterion: the same grid swept with 1 and with 8 worker
// threads yields bit-identical attack metrics (only wall-clock may differ).
TEST(Sweep, EightJobsBitIdenticalToOneJob) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1, 2};
  grid.split_layers = {4};
  // Both defenses: Proposed exercises protect(); Unprotected the baseline.
  sweep::Options opts;
  opts.patterns = 1500;

  opts.jobs = 1;
  const auto serial = sweep::run(grid, opts);
  opts.jobs = 8;
  const auto parallel = sweep::run(grid, opts);

  EXPECT_EQ(serial.jobs, 1u);
  // Result::jobs is the resolved count: 8 requested, but only 4 tasks
  // (2 seeds x 2 defenses) exist to run on.
  EXPECT_EQ(parallel.jobs, 4u);
  ASSERT_EQ(serial.rows.size(), grid.combinations());
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const auto& a = serial.rows[i];
    const auto& b = parallel.rows[i];
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.split_layer, b.split_layer);
    EXPECT_EQ(a.defense, b.defense);
    EXPECT_EQ(a.ccr, b.ccr);  // bitwise, not NEAR: the contract is identity
    EXPECT_EQ(a.ccr_protected, b.ccr_protected);
    EXPECT_EQ(a.oer, b.oer);
    EXPECT_EQ(a.hd, b.hd);
    EXPECT_EQ(a.open_sinks, b.open_sinks);
    EXPECT_EQ(a.swaps, b.swaps);
  }
  // Sanity on the metrics themselves. Unprotected layouts of tiny circuits
  // may route entirely below the split (zero open sinks), but the proposed
  // defense lifts wires above it by construction.
  for (const auto& row : serial.rows) {
    if (row.defense == sweep::Defense::Proposed) {
      EXPECT_GE(row.open_sinks, 1u);
      EXPECT_GE(row.swaps, 1u);
    }
  }

  // Shared-stage accounting: the grid spans 2 (bench, seed) groups × 2
  // defenses, and each shared stage ran exactly once per group — the
  // netlist for both defenses, placement + base route for Unprotected.
  // The counters are part of the determinism contract too.
  for (const auto* r : {&serial, &parallel}) {
    EXPECT_EQ(r->cache_stats.netlists, 2u);
    EXPECT_EQ(r->cache_stats.placements, 2u);
    EXPECT_EQ(r->cache_stats.base_routes, 2u);
    EXPECT_EQ(r->cache_stats.hits, 2u);  // the Proposed tasks' netlist reuse
  }
}

TEST(Sweep, ExportsContainEveryRow) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {3};
  grid.split_layers = {4, 5};
  grid.defenses = {sweep::Defense::Unprotected};
  sweep::Options opts;
  opts.patterns = 500;
  const auto res = sweep::run(grid, opts);
  ASSERT_EQ(res.rows.size(), 2u);

  const auto csv = res.to_csv();
  EXPECT_NE(csv.find("c432,3,4,unprotected"), std::string::npos);
  EXPECT_NE(csv.find("c432,3,5,unprotected"), std::string::npos);

  const auto json = res.to_json();
  EXPECT_NE(json.find("\"split_layer\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"split_layer\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"defense\": \"unprotected\""), std::string::npos);

  // Two splits of one (benchmark, seed, defense) task share one layout —
  // and therefore report the same task wall time.
  EXPECT_EQ(res.rows[0].wall_ms, res.rows[1].wall_ms);
}

// A cell with no open sink reports CCR 1.0 by convention; the means skip
// it, count only what they averaged, and render an all-vacuous group n/a.
TEST(Sweep, MeansSkipVacuousCells) {
  sweep::Result res;
  sweep::Row row;
  row.benchmark = "c432";
  row.ccr = row.ccr_protected = row.oer = row.hd = 1.0;  // vacuous
  res.rows.push_back(row);
  row.ccr = row.ccr_protected = 0.8;
  row.oer = 0.5;
  row.hd = 0.1;
  row.open_sinks = 5;
  res.rows.push_back(row);
  row = {};
  row.benchmark = "c880";
  row.ccr = row.ccr_protected = 1.0;  // vacuous
  res.rows.push_back(row);

  const auto means = res.means();
  ASSERT_EQ(means.size(), 2u);
  const auto& real = means.at(
      {"c432", sweep::Defense::Unprotected, sweep::Attacker::Proximity});
  EXPECT_EQ(real.cells, 1u);
  EXPECT_EQ(real.ccr, 0.8);
  EXPECT_EQ(real.oer, 0.5);
  EXPECT_EQ(real.hd, 0.1);
  EXPECT_EQ(real.pct(real.ccr), "80.0%");
  const auto& none = means.at(
      {"c880", sweep::Defense::Unprotected, sweep::Attacker::Proximity});
  EXPECT_EQ(none.cells, 0u);
  EXPECT_EQ(none.pct(none.ccr), "n/a");

  const auto summary = res.summary().render();
  EXPECT_NE(summary.find("80.0%"), std::string::npos);
  EXPECT_EQ(summary.find("90.0%"), std::string::npos);
  EXPECT_NE(summary.find("n/a"), std::string::npos);
}

TEST(Sweep, RejectsResumeWithoutStore) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  sweep::Options resume_only;
  resume_only.resume = true;  // resume without a store to resume from
  EXPECT_THROW(sweep::run(grid, resume_only), std::invalid_argument);
}

// Acceptance: a sweep interrupted after part of the grid (here: a sub-grid
// run that logged only the M4 cells) resumes into a result bit-identical
// to a from-scratch run — resumed rows come from the log, missing splits
// of partially-logged tasks are recomputed, and only wall_ms may differ.
TEST(Sweep, ResumedEqualsFromScratch) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4, 5};
  sweep::Options opts;
  opts.patterns = 800;
  opts.jobs = 2;

  const auto scratch = sweep::run(grid, opts);
  ASSERT_EQ(scratch.rows.size(), 4u);
  EXPECT_EQ(scratch.computed_cells, 4u);
  EXPECT_EQ(scratch.resumed_cells, 0u);

  const std::string store = testing::TempDir() + "sm_sweep_resume.jsonl";
  std::remove(store.c_str());

  // "Interrupted" run: same recipe, but only the M4 split completed.
  sweep::Grid partial = grid;
  partial.split_layers = {4};
  sweep::Options popts = opts;
  popts.store_path = store;
  const auto first = sweep::run(partial, popts);
  EXPECT_EQ(first.computed_cells, 2u);

  // Resume the full grid: the two logged M4 cells are filled from the
  // store, the two M5 cells are computed (their tasks re-run, but attack
  // seeds depend only on the grid seed and split layer).
  sweep::Options ropts = opts;
  ropts.store_path = store;
  ropts.resume = true;
  const auto resumed = sweep::run(grid, ropts);
  EXPECT_EQ(resumed.resumed_cells, 2u);
  EXPECT_EQ(resumed.computed_cells, 2u);
  expect_rows_equal_modulo_wall(scratch.rows, resumed.rows);
  EXPECT_EQ(strip_wall_column(scratch.to_csv()),
            strip_wall_column(resumed.to_csv()));

  // Resuming again finds every cell logged: nothing left to compute.
  const auto done = sweep::run(grid, ropts);
  EXPECT_EQ(done.resumed_cells, 4u);
  EXPECT_EQ(done.computed_cells, 0u);
  expect_rows_equal_modulo_wall(scratch.rows, done.rows);
  std::remove(store.c_str());
}

// Acceptance: a grid split into sub-grids — one per seed, each run into
// its own log, as two hosts would — materializes from the merged logs to
// the same table as the whole grid (CSV byte-identical once wall_ms is
// stripped): a cell's config hash does not depend on the grid that
// expanded it.
TEST(Sweep, SubGridLogsMaterializeToWholeGrid) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1, 2};
  grid.split_layers = {4};
  sweep::Options opts;
  opts.patterns = 800;
  opts.jobs = 2;

  const auto whole = sweep::run(grid, opts);
  ASSERT_EQ(whole.rows.size(), 4u);

  std::vector<std::string> logs;
  for (const auto seed : grid.seeds) {
    sweep::Grid sub = grid;
    sub.seeds = {seed};
    sweep::Options sopts = opts;
    sopts.store_path = testing::TempDir() + "sm_sweep_seed" +
                       std::to_string(seed) + ".jsonl";
    std::remove(sopts.store_path.c_str());
    const auto part = sweep::run(sub, sopts);
    EXPECT_EQ(part.computed_cells, 2u);  // 2 defenses x 1 split
    logs.push_back(sopts.store_path);
  }

  // Merge the two logs in reverse order (order must not matter — records
  // are keyed) and materialize the whole grid from them.
  const auto store =
      sweep::load_store({logs[1], logs[0]}, /*must_exist=*/true);
  EXPECT_EQ(store.records.size(), 4u);
  EXPECT_EQ(store.duplicates, 0u);
  const auto mat = sweep::materialize(grid, opts, store);
  EXPECT_TRUE(mat.missing.empty());
  expect_rows_equal_modulo_wall(whole.rows, mat.result.rows);
  EXPECT_EQ(strip_wall_column(whole.to_csv()),
            strip_wall_column(mat.result.to_csv()));
  for (const auto& log : logs) std::remove(log.c_str());
}

}  // namespace
