// Config-hash coverage for the Attacker/Defense axis extension. The store's
// cross-release contract is two-sided: every NEW axis value gets a golden
// pin of its own (so future releases cannot silently re-key those cells),
// and every OLD proximity-only recipe must keep its pre-extension hash and
// parse (so stores written before the axis existed still resolve under
// --resume). The legacy pins themselves live in test_store.cpp; this suite
// owns everything the axis extension added.
#include "sweep/store.hpp"

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

namespace {

using namespace sm;

sweep::Grid quick_grid() {
  sweep::Grid grid;  // defaults: scale 0.02
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4};
  return grid;
}

std::string hash_of(const sweep::Grid& grid, const sweep::Options& opts,
                    sweep::Defense defense, sweep::Attacker attacker) {
  sweep::Grid g = grid;
  g.defenses = {defense};
  g.attackers = {attacker};
  const auto cells = sweep::expand_cells(g, opts);
  EXPECT_EQ(cells.size(), 1u);
  return cells.empty() ? "" : cells[0].config_hash;
}

// Golden pins for the attacker axis: these exact configurations must hash
// to these exact keys in every future release. If a hash change is
// intentional, bump the "format" tag in cell_config_json and update the
// pins (here AND in test_store.cpp) in the same PR.
TEST(StoreAxes, GoldenAttackerHashesAreStableAcrossReleases) {
  const sweep::Grid grid = quick_grid();
  sweep::Options opts;
  opts.patterns = 2000;
  using sweep::Attacker;
  using sweep::Defense;

  // The proximity attacker must hash exactly like the pre-axis recipe —
  // these are the test_store.cpp legacy pins, reproduced through the
  // attacker-aware expansion.
  EXPECT_EQ(hash_of(grid, opts, Defense::Unprotected, Attacker::Proximity),
            "5b8b859189dacd44");
  EXPECT_EQ(hash_of(grid, opts, Defense::Proposed, Attacker::Proximity),
            "cd0f8c7f7faf748e");

  EXPECT_EQ(hash_of(grid, opts, Defense::Unprotected, Attacker::CRouting),
            "ff689d1e8f1f73a2");
  EXPECT_EQ(hash_of(grid, opts, Defense::Unprotected, Attacker::Sat),
            "144e754137305bdd");
  EXPECT_EQ(hash_of(grid, opts, Defense::Proposed, Attacker::CRouting),
            "3abd1897e4750d50");
  EXPECT_EQ(hash_of(grid, opts, Defense::Proposed, Attacker::Sat),
            "2c1145d44bb7fc99");
}

// Golden pins for the baseline-defense axis values (proximity attacker).
TEST(StoreAxes, GoldenBaselineDefenseHashesAreStableAcrossReleases) {
  const sweep::Grid grid = quick_grid();
  sweep::Options opts;
  opts.patterns = 2000;
  using sweep::Attacker;
  using sweep::Defense;
  const std::pair<Defense, const char*> pins[] = {
      {Defense::PlacePerturb, "ee07b948a484c187"},
      {Defense::Random, "8c940f4c08f1396f"},
      {Defense::GColor, "0fb5a5a0215b7d33"},
      {Defense::GType1, "f10929e67465cde7"},
      {Defense::GType2, "3fe167646c985860"},
      {Defense::PinSwap, "4a2bbf3b093375f7"},
      {Defense::RoutePerturb, "2513d3cf496620b0"},
      {Defense::RouteBlockage, "be86064cb3829030"},
  };
  for (const auto& [defense, pin] : pins)
    EXPECT_EQ(hash_of(grid, opts, defense, Attacker::Proximity), pin)
        << sweep::to_string(defense);
}

// Golden pin for a workload-generator synthetic bench.
TEST(StoreAxes, GoldenSyntheticBenchHashIsStableAcrossReleases) {
  sweep::Grid grid;  // scale 0.02
  grid.benchmarks = {"synth4k"};
  grid.seeds = {1};
  grid.split_layers = {5};
  grid.defenses = {sweep::Defense::Unprotected};
  grid.attackers = {sweep::Attacker::CRouting};
  sweep::Options opts;
  opts.patterns = 2000;
  const auto cells = sweep::expand_cells(grid, opts);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].workload, sweep::Workload::Synthetic);
  EXPECT_EQ(cells[0].config_hash, "a3ceba943825c23d");
}

// Conditional-key invariant behind the pins: proximity cells never emit an
// "attacker" key, non-baseline defenses never emit a "baseline" block — the
// recipe of every pre-axis cell is byte-identical to what PR 7 hashed.
TEST(StoreAxes, RecipeKeysAreConditional) {
  const sweep::Grid grid = quick_grid();
  sweep::Options opts;
  opts.patterns = 2000;
  const auto prox = sweep::cell_config_json(
      grid, opts, "c432", sweep::Workload::Iscas85, 1,
      sweep::Defense::Unprotected, 4, sweep::Attacker::Proximity);
  EXPECT_EQ(prox.find("\"attacker\""), std::string::npos);
  EXPECT_EQ(prox.find("\"baseline\""), std::string::npos);

  const auto cr = sweep::cell_config_json(
      grid, opts, "c432", sweep::Workload::Iscas85, 1,
      sweep::Defense::RouteBlockage, 4, sweep::Attacker::CRouting);
  EXPECT_NE(cr.find("\"attacker\":\"crouting\""), std::string::npos);
  EXPECT_NE(cr.find("\"baseline\""), std::string::npos);
  EXPECT_NE(cr.find("\"blockages\""), std::string::npos);
  // Both are canonical JSON the store parser accepts.
  EXPECT_NO_THROW(util::json::parse(prox));
  EXPECT_NO_THROW(util::json::parse(cr));
}

// Scheduling knobs must stay excluded from the hash on the NEW axis values
// too — jobs/resume/store changes resolve to the same cells.
TEST(StoreAxes, HashIgnoresSchedulingOptionsOnNewAxes) {
  sweep::Grid grid = quick_grid();
  grid.defenses = {sweep::Defense::GColor, sweep::Defense::PinSwap};
  grid.attackers = {sweep::Attacker::CRouting, sweep::Attacker::Sat};
  sweep::Options a;
  a.patterns = 2000;
  sweep::Options b = a;
  b.jobs = 8;
  b.store_path = "elsewhere.jsonl";
  b.resume = true;
  const auto ca = sweep::expand_cells(grid, a);
  const auto cb = sweep::expand_cells(grid, b);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i)
    EXPECT_EQ(ca[i].config_hash, cb[i].config_hash);
}

// The hash covers the attacker coordinate: same cell, different attacker,
// different key — and every (defense, attacker) pair keys uniquely.
TEST(StoreAxes, HashCoversTheAttackerCoordinate) {
  sweep::Grid grid = quick_grid();
  grid.defenses = {sweep::Defense::Unprotected, sweep::Defense::Proposed,
                   sweep::Defense::PlacePerturb, sweep::Defense::Random,
                   sweep::Defense::GColor, sweep::Defense::GType1,
                   sweep::Defense::GType2, sweep::Defense::PinSwap,
                   sweep::Defense::RoutePerturb,
                   sweep::Defense::RouteBlockage};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting,
                    sweep::Attacker::Sat};
  sweep::Options opts;
  opts.patterns = 2000;
  const auto cells = sweep::expand_cells(grid, opts);
  ASSERT_EQ(cells.size(), 30u);
  for (std::size_t i = 0; i < cells.size(); ++i)
    for (std::size_t j = i + 1; j < cells.size(); ++j)
      EXPECT_NE(cells[i].config_hash, cells[j].config_hash)
          << sweep::describe(cells[i]) << " vs " << sweep::describe(cells[j]);
}

// Expansion order: attacker is the innermost coordinate (matches
// Result::rows), split next.
TEST(StoreAxes, ExpandPutsAttackerInnermost) {
  sweep::Grid grid = quick_grid();
  grid.split_layers = {3, 5};
  grid.defenses = {sweep::Defense::Unprotected};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  const auto cells = sweep::expand_cells(grid, {});
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].split_layer, 3);
  EXPECT_EQ(cells[0].attacker, sweep::Attacker::Proximity);
  EXPECT_EQ(cells[1].split_layer, 3);
  EXPECT_EQ(cells[1].attacker, sweep::Attacker::CRouting);
  EXPECT_EQ(cells[2].split_layer, 5);
  EXPECT_EQ(cells[2].attacker, sweep::Attacker::Proximity);
  // All four belong to the same (bench, seed, defense) task.
  EXPECT_EQ(cells[0].task_index, cells[3].task_index);
}

// Cross-release resume: a record in the PRE-AXIS line schema (no attacker/
// els/equiv keys) parses with proximity defaults and resolves a cell of
// today's expansion — old stores keep working under --resume.
TEST(StoreAxes, LegacyProximityRecordsStillResolve) {
  const sweep::Grid grid = quick_grid();  // default defenses + proximity
  sweep::Options opts;
  opts.patterns = 2000;
  const auto cells = sweep::expand_cells(grid, opts);
  ASSERT_EQ(cells.size(), 2u);
  ASSERT_EQ(cells[0].config_hash, "5b8b859189dacd44");  // the legacy pin

  // Byte-for-byte the line schema PR 7 wrote (attacker axis unknown).
  const std::string legacy_line =
      "{\"benchmark\":\"c432\",\"ccr\":0.75,\"ccr_protected\":0.5,"
      "\"config_hash\":\"5b8b859189dacd44\",\"defense\":\"unprotected\","
      "\"hd\":0.25,\"oer\":0.875,\"open_sinks\":42,\"patterns\":2000,"
      "\"scale\":0.02,\"seed\":1,\"split_layer\":4,\"swaps\":0,"
      "\"wall_ms\":12.5}";
  const auto rec = sweep::parse_store_line(legacy_line);
  EXPECT_EQ(rec.row.attacker, sweep::Attacker::Proximity);
  EXPECT_EQ(rec.row.els, 0.0);
  EXPECT_EQ(rec.row.equiv, -1);
  EXPECT_EQ(rec.row.ccr, 0.75);

  const std::string path = testing::TempDir() + "sm_axes_legacy.jsonl";
  {
    std::ofstream f(path);
    f << legacy_line << '\n';
  }
  const auto store = sweep::load_store({path}, /*must_exist=*/true);
  const auto mat = sweep::materialize(grid, opts, store);
  ASSERT_EQ(mat.result.rows.size(), 1u);
  EXPECT_EQ(mat.result.rows[0].attacker, sweep::Attacker::Proximity);
  EXPECT_EQ(mat.result.rows[0].ccr, 0.75);
  ASSERT_EQ(mat.missing.size(), 1u);  // the proposed cell
  EXPECT_EQ(mat.missing[0].defense, sweep::Defense::Proposed);
  std::remove(path.c_str());
}

// New-schema records round-trip the attacker fields bit-exact.
TEST(StoreAxes, AttackerFieldsRoundTripThroughTheLine) {
  sweep::StoreRecord rec;
  rec.config_hash = "0123456789abcdef";
  rec.row.benchmark = "c880";
  rec.row.seed = 2;
  rec.row.split_layer = 5;
  rec.row.defense = sweep::Defense::GType2;
  rec.row.attacker = sweep::Attacker::CRouting;
  rec.row.els = 17.0 / 3.0;  // no short decimal form
  rec.row.equiv = 2;
  rec.patterns = 800;
  rec.scale = 0.02;
  const auto back = sweep::parse_store_line(to_store_line(rec));
  EXPECT_EQ(back.row.defense, sweep::Defense::GType2);
  EXPECT_EQ(back.row.attacker, sweep::Attacker::CRouting);
  EXPECT_EQ(back.row.els, rec.row.els);
  EXPECT_EQ(back.row.equiv, 2);
}

// Satellite: describe() prints the FULL canonical recipe coordinates —
// workload source and attacker included — so dry-run output is auditable.
TEST(StoreAxes, DescribeNamesEveryAxis) {
  sweep::Grid grid;
  grid.benchmarks = {"synth16k"};
  grid.seeds = {9};
  grid.split_layers = {6};
  grid.defenses = {sweep::Defense::RoutePerturb};
  grid.attackers = {sweep::Attacker::CRouting};
  const auto cells = sweep::expand_cells(grid, {});
  ASSERT_EQ(cells.size(), 1u);
  const auto text = sweep::describe(cells[0]);
  EXPECT_NE(text.find("synth16k"), std::string::npos);
  EXPECT_NE(text.find("(synthetic)"), std::string::npos);
  EXPECT_NE(text.find("seed=9"), std::string::npos);
  EXPECT_NE(text.find("M6"), std::string::npos);
  EXPECT_NE(text.find("route-perturb"), std::string::npos);
  EXPECT_NE(text.find("attacker=crouting"), std::string::npos);
  EXPECT_NE(text.find(cells[0].config_hash), std::string::npos);
}

// The missing-cell listing is sorted by config hash — stable whatever
// order the grid flags list the cells in, so CI can byte-diff stderr.
TEST(StoreAxes, MaterializeMissingIsSortedByConfigHash) {
  sweep::Grid grid = quick_grid();
  grid.split_layers = {3, 4, 5};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  sweep::Options opts;
  opts.patterns = 2000;
  const auto mat = sweep::materialize(grid, opts, sweep::StoreContents{});
  ASSERT_EQ(mat.missing.size(), grid.combinations());
  EXPECT_TRUE(mat.missing.size() >= 2u);
  for (std::size_t i = 1; i < mat.missing.size(); ++i)
    EXPECT_LT(mat.missing[i - 1].config_hash, mat.missing[i].config_hash);
}

}  // namespace
