// Tests for the event-sourced sweep store substrate: canonical JSON +
// FNV hashing (util/config_hash), the minimal JSON parser (util/json),
// store record round-trips, append/load/merge semantics (torn tails,
// last-wins duplicates), cell expansion, materialization — and the golden
// config-hash pins that hold hash stability across releases.
#include "sweep/store.hpp"

#include "util/config_hash.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace {

using namespace sm;

// ---------------------------------------------------------------- util ---

TEST(ConfigHash, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(util::format_double(0.0), "0");
  EXPECT_EQ(util::format_double(50.0), "50");
  EXPECT_EQ(util::format_double(-3.0), "-3");
  EXPECT_EQ(util::format_double(0.45), "0.45");
  EXPECT_EQ(util::format_double(0.1), "0.1");
  EXPECT_EQ(util::format_double(2.8), "2.8");
  // Bit-exact round trip even for values without short decimal forms.
  const double ugly = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(util::format_double(ugly).c_str(), nullptr), ugly);
  const double tiny = 1e-17;
  EXPECT_EQ(std::strtod(util::format_double(tiny).c_str(), nullptr), tiny);
}

TEST(ConfigHash, Fnv1a64GoldenValues) {
  EXPECT_EQ(util::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(util::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a64("hello world"), 0x779a65e7023cd2e7ull);
}

TEST(ConfigHash, HashIsLowercaseHexOfFnv) {
  EXPECT_EQ(util::config_hash(""), "cbf29ce484222325");
  EXPECT_EQ(util::config_hash("a"), "af63dc4c8601ec8c");
}

TEST(ConfigHash, JsonWriterProducesCanonicalBytes) {
  util::JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array();
  w.value("x").value(0.5).value(true);
  w.begin_object().key("n").value(std::uint64_t{7}).end_object();
  w.end_array();
  w.key("c").raw("{\"inner\":[]}");
  w.key("d\"e").value("quote\"back\\slash\nnewline");
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"b\":[\"x\",0.5,true,{\"n\":7}],"
            "\"c\":{\"inner\":[]},"
            "\"d\\\"e\":\"quote\\\"back\\\\slash\\nnewline\"}");
}

TEST(Json, ParsesWhatTheWriterWrites) {
  util::JsonWriter w;
  w.begin_object();
  w.key("name").value("c432");
  w.key("seed").value(std::uint64_t{18446744073709551615ull});
  w.key("neg").value(std::int64_t{-42});
  w.key("pi").value(3.125);
  w.key("flag").value(false);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.end_object();

  const auto v = util::json::parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").as_string(), "c432");
  // Full 64-bit seeds survive (a double would lose the low bits).
  EXPECT_EQ(v.at("seed").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(v.at("neg").as_int(), -42);
  EXPECT_EQ(v.at("pi").as_double(), 3.125);
  EXPECT_FALSE(v.at("flag").as_bool());
  ASSERT_TRUE(v.at("list").is_array());
  EXPECT_EQ(v.at("list").array.size(), 2u);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_THROW(v.at("absent"), std::invalid_argument);
  EXPECT_THROW(v.at("name").as_u64(), std::invalid_argument);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(util::json::parse(""), std::invalid_argument);
  EXPECT_THROW(util::json::parse("{\"a\":1"), std::invalid_argument);
  EXPECT_THROW(util::json::parse("{\"a\":1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(util::json::parse("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW(util::json::parse("{\"a\":1,\"a\":2}"), std::invalid_argument);
  EXPECT_THROW(util::json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(util::json::parse("nul"), std::invalid_argument);
  EXPECT_THROW(util::json::parse("\"open"), std::invalid_argument);
}

// --------------------------------------------------------------- store ---

sweep::StoreRecord sample_record() {
  sweep::StoreRecord rec;
  rec.config_hash = "00112233aabbccdd";
  rec.row.benchmark = "c432";
  rec.row.seed = 3;
  rec.row.split_layer = 4;
  rec.row.defense = sweep::Defense::Proposed;
  rec.row.ccr = 0.0537109375;
  rec.row.ccr_protected = 1.0 / 3.0;  // no short decimal form
  rec.row.oer = 0.9619140625;
  rec.row.hd = 0.4921875;
  rec.row.open_sinks = 123;
  rec.row.swaps = 17;
  rec.row.wall_ms = 321.625;
  rec.patterns = 2000;
  rec.scale = 0.02;
  rec.config_json = "{\"format\":\"sm-sweep-cell-v1\"}";
  return rec;
}

TEST(Store, RecordLineRoundTripsBitExact) {
  const auto rec = sample_record();
  const auto line = to_store_line(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto back = sweep::parse_store_line(line);
  EXPECT_EQ(back.config_hash, rec.config_hash);
  EXPECT_EQ(back.row.benchmark, rec.row.benchmark);
  EXPECT_EQ(back.row.seed, rec.row.seed);
  EXPECT_EQ(back.row.split_layer, rec.row.split_layer);
  EXPECT_EQ(back.row.defense, rec.row.defense);
  // Bitwise equality — the resume/materialize determinism contract rests
  // on doubles surviving the log unchanged.
  EXPECT_EQ(back.row.ccr, rec.row.ccr);
  EXPECT_EQ(back.row.ccr_protected, rec.row.ccr_protected);
  EXPECT_EQ(back.row.oer, rec.row.oer);
  EXPECT_EQ(back.row.hd, rec.row.hd);
  EXPECT_EQ(back.row.open_sinks, rec.row.open_sinks);
  EXPECT_EQ(back.row.swaps, rec.row.swaps);
  EXPECT_EQ(back.row.wall_ms, rec.row.wall_ms);
  EXPECT_EQ(back.patterns, rec.patterns);
  EXPECT_EQ(back.scale, rec.scale);
}

TEST(Store, ParseRejectsTornAndMistypedLines) {
  const auto line = to_store_line(sample_record());
  EXPECT_THROW(sweep::parse_store_line(line.substr(0, line.size() / 2)),
               std::invalid_argument);
  EXPECT_THROW(sweep::parse_store_line("{}"), std::invalid_argument);
  EXPECT_THROW(sweep::parse_store_line("not json at all"),
               std::invalid_argument);
}

TEST(Store, WriterAppendsAndLoadMerges) {
  const std::string path = testing::TempDir() + "sm_store_test_basic.jsonl";
  std::remove(path.c_str());

  auto a = sample_record();
  auto b = sample_record();
  b.config_hash = "ffeeddccbbaa9988";
  b.row.split_layer = 5;
  {
    sweep::StoreWriter w(path);
    w.append(a);
    w.append(b);
  }
  {
    // Appending to an existing log must append, not truncate; the same
    // key later in the log wins (event-sourced last-wins).
    auto a2 = a;
    a2.row.wall_ms = 999.0;
    sweep::StoreWriter w(path);
    w.append(a2);
  }

  const auto store = sweep::load_store({path}, /*must_exist=*/true);
  EXPECT_EQ(store.lines, 3u);
  EXPECT_EQ(store.skipped, 0u);
  EXPECT_EQ(store.duplicates, 1u);
  ASSERT_EQ(store.records.size(), 2u);
  EXPECT_EQ(store.records.at(a.config_hash).row.wall_ms, 999.0);
  EXPECT_EQ(store.records.at(b.config_hash).row.split_layer, 5);
  std::remove(path.c_str());
}

TEST(Store, LoadSkipsTornTailAndMergesFiles) {
  const std::string p1 = testing::TempDir() + "sm_store_test_log0.jsonl";
  const std::string p2 = testing::TempDir() + "sm_store_test_log1.jsonl";
  std::remove(p1.c_str());
  std::remove(p2.c_str());

  auto a = sample_record();
  auto b = sample_record();
  b.config_hash = "ffeeddccbbaa9988";
  {
    std::ofstream f1(p1);
    f1 << to_store_line(a) << '\n';
    // A crash mid-append tears the final line; the cell was never
    // acknowledged, so loading must skip it and keep everything before.
    const auto torn = to_store_line(b);
    f1 << torn.substr(0, torn.size() / 3);
  }
  {
    std::ofstream f2(p2);
    f2 << to_store_line(b) << '\n';
  }

  const auto store = sweep::load_store({p1, p2}, /*must_exist=*/true);
  EXPECT_EQ(store.skipped, 1u);
  EXPECT_EQ(store.records.size(), 2u);
  EXPECT_TRUE(store.records.count(a.config_hash));
  EXPECT_TRUE(store.records.count(b.config_hash));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Store, MissingFilePolicy) {
  const std::string path = testing::TempDir() + "sm_store_test_absent.jsonl";
  std::remove(path.c_str());
  // Resume of a first run: missing log is an empty store, not an error...
  const auto store = sweep::load_store({path}, /*must_exist=*/false);
  EXPECT_TRUE(store.records.empty());
  // ...but materialize of a typo'd path must fail loudly.
  EXPECT_THROW(sweep::load_store({path}, /*must_exist=*/true),
               std::runtime_error);
}

// --------------------------------------------------------- tail reader ---

TEST(StoreReader, PollReadsOnlyAppendedBytes) {
  const std::string path = testing::TempDir() + "sm_store_test_tail.jsonl";
  std::remove(path.c_str());
  auto a = sample_record();
  auto b = sample_record();
  b.config_hash = "ffeeddccbbaa9988";

  sweep::StoreWriter w(path);
  w.append(a);
  sweep::StoreReader r(path);
  sweep::StoreContents acc;
  EXPECT_EQ(r.poll(acc), 1u);
  const auto consumed = r.offset();
  EXPECT_GT(consumed, 0u);
  // An idle poll is O(0 new bytes): nothing merged, offset unmoved.
  EXPECT_EQ(r.poll(acc), 0u);
  EXPECT_EQ(r.offset(), consumed);
  w.append(b);
  EXPECT_EQ(r.poll(acc), 1u);
  EXPECT_GT(r.offset(), consumed);
  EXPECT_EQ(acc.records.size(), 2u);
  EXPECT_EQ(acc.lines, 2u);
  EXPECT_EQ(acc.skipped, 0u);
  std::remove(path.c_str());
}

TEST(StoreReader, UnterminatedTailWaitsForItsNewline) {
  const std::string path = testing::TempDir() + "sm_store_test_inflight.jsonl";
  std::remove(path.c_str());
  auto a = sample_record();
  auto b = sample_record();
  b.config_hash = "ffeeddccbbaa9988";
  const auto line_b = to_store_line(b);

  // A record still in flight: the reader must not judge the unterminated
  // tail — the writer commits whole lines, so the newline will come.
  {
    std::ofstream f(path);
    f << to_store_line(a) << '\n' << line_b.substr(0, line_b.size() / 2);
  }
  sweep::StoreReader r(path);
  sweep::StoreContents acc;
  EXPECT_EQ(r.poll(acc), 1u);
  const auto consumed = r.offset();
  EXPECT_EQ(acc.records.size(), 1u);
  EXPECT_EQ(acc.skipped, 0u);
  {
    std::ofstream f(path, std::ios::app);
    f << line_b.substr(line_b.size() / 2) << '\n';
  }
  EXPECT_EQ(r.poll(acc), 1u);
  EXPECT_GT(r.offset(), consumed);
  EXPECT_EQ(acc.records.size(), 2u);
  EXPECT_TRUE(acc.records.count(b.config_hash));
  EXPECT_EQ(acc.skipped, 0u);
  std::remove(path.c_str());
}

TEST(StoreReader, TornTailGluesIntoNextAppendAndSkips) {
  const std::string path = testing::TempDir() + "sm_store_test_glue.jsonl";
  std::remove(path.c_str());
  auto a = sample_record();
  auto b = sample_record();
  b.config_hash = "ffeeddccbbaa9988";
  auto c = sample_record();
  c.config_hash = "0123456789abcdef";

  {
    std::ofstream f(path);
    const auto torn = to_store_line(b);
    f << to_store_line(a) << '\n' << torn.substr(0, torn.size() / 3);
  }
  sweep::StoreReader r(path);
  sweep::StoreContents acc;
  EXPECT_EQ(r.poll(acc), 1u);
  // A crashed worker's torn tail never gets its newline; the next append
  // (O_APPEND) lands behind it and the glued bytes parse as one garbage
  // line — byte-for-byte what load_store sees in a merged log with a
  // mid-file tear. The record after the glue merges normally.
  {
    std::ofstream f(path, std::ios::app);
    f << to_store_line(c) << '\n';
  }
  EXPECT_EQ(r.poll(acc), 0u);
  EXPECT_EQ(acc.skipped, 1u);
  {
    std::ofstream f(path, std::ios::app);
    f << to_store_line(b) << '\n';
  }
  EXPECT_EQ(r.poll(acc), 1u);
  EXPECT_EQ(acc.records.size(), 2u);
  EXPECT_TRUE(acc.records.count(b.config_hash));
  EXPECT_FALSE(acc.records.count(c.config_hash));  // lost to the glue
  std::remove(path.c_str());
}

TEST(StoreReader, ConsumeTailMatchesLoadStore) {
  const std::string path = testing::TempDir() + "sm_store_test_eoftail.jsonl";
  std::remove(path.c_str());
  auto a = sample_record();
  auto b = sample_record();
  b.config_hash = "ffeeddccbbaa9988";
  {
    // EOF-terminated final line, no trailing newline: getline-at-EOF
    // territory, which only a consume_tail poll may enter.
    std::ofstream f(path);
    f << to_store_line(a) << '\n' << to_store_line(b);
  }
  sweep::StoreReader r(path);
  sweep::StoreContents acc;
  EXPECT_EQ(r.poll(acc, /*consume_tail=*/false), 1u);
  EXPECT_EQ(r.poll(acc, /*consume_tail=*/true), 1u);

  const auto ref = sweep::load_store({path}, /*must_exist=*/true);
  EXPECT_EQ(acc.records.size(), ref.records.size());
  EXPECT_EQ(acc.lines, ref.lines);
  EXPECT_EQ(acc.skipped, ref.skipped);
  EXPECT_EQ(acc.duplicates, ref.duplicates);
  for (const auto& [hash, rec] : ref.records) {
    ASSERT_TRUE(acc.records.count(hash));
    EXPECT_EQ(acc.records.at(hash).row.wall_ms, rec.row.wall_ms);
  }
  std::remove(path.c_str());
}

TEST(StoreReader, ShrunkenLogRestartsFromByteZero) {
  const std::string path = testing::TempDir() + "sm_store_test_shrink.jsonl";
  std::remove(path.c_str());
  auto a = sample_record();
  auto b = sample_record();
  b.config_hash = "ffeeddccbbaa9988";
  {
    std::ofstream f(path);
    f << to_store_line(a) << '\n' << to_store_line(b) << '\n';
  }
  sweep::StoreReader r(path);
  sweep::StoreContents acc;
  EXPECT_EQ(r.poll(acc), 2u);
  {
    // Log rotated/replaced under the reader: smaller file, fresh bytes.
    std::ofstream f(path, std::ios::trunc);
    f << to_store_line(b) << '\n';
  }
  EXPECT_EQ(r.poll(acc), 1u);  // keyed merge makes the re-read idempotent
  EXPECT_EQ(acc.records.size(), 2u);
  EXPECT_EQ(acc.duplicates, 1u);
  EXPECT_EQ(r.offset(), to_store_line(b).size() + 1);
  std::remove(path.c_str());
}

// ---------------------------------------------------- cells and hashes ---

TEST(StoreCells, ExpandIsGridMajorWithSplitInnermost) {
  sweep::Grid grid;
  grid.benchmarks = {"c432", "c880"};
  grid.seeds = {1, 2};
  grid.split_layers = {3, 5};
  sweep::Options opts;
  opts.patterns = 1000;

  const auto cells = sweep::expand_cells(grid, opts);
  ASSERT_EQ(cells.size(), grid.combinations());
  // Row order must match Result::rows: benchmark, seed, defense, split.
  EXPECT_EQ(cells[0].benchmark, "c432");
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[0].defense, sweep::Defense::Unprotected);
  EXPECT_EQ(cells[0].split_layer, 3);
  EXPECT_EQ(cells[1].split_layer, 5);
  EXPECT_EQ(cells[2].defense, sweep::Defense::Proposed);
  EXPECT_EQ(cells[0].task_index, cells[1].task_index);
  EXPECT_NE(cells[1].task_index, cells[2].task_index);
  EXPECT_EQ(cells.back().benchmark, "c880");
  EXPECT_EQ(cells.back().seed, 2u);
  EXPECT_EQ(cells.back().split_layer, 5);
  // Hashes are unique per cell.
  for (std::size_t i = 0; i < cells.size(); ++i)
    for (std::size_t j = i + 1; j < cells.size(); ++j)
      EXPECT_NE(cells[i].config_hash, cells[j].config_hash) << i << " " << j;
}

TEST(StoreCells, ExpandValidatesBenchmarksEvenWithoutSplits) {
  sweep::Grid grid;
  grid.benchmarks = {"c9999"};
  grid.split_layers.clear();
  EXPECT_THROW(sweep::expand_cells(grid, {}), std::invalid_argument);
}

// A grid built in code skips Grid::set's checks; expansion catches a split
// layer the metal stack cannot cut after before any layout is routed.
TEST(StoreCells, ExpandValidatesSplitLayers) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  for (const int layer : {0, 10}) {
    grid.split_layers = {4, layer};
    EXPECT_THROW(sweep::expand_cells(grid, {}), std::invalid_argument)
        << "M" << layer;
  }
}

TEST(StoreCells, HashIgnoresSchedulingOptions) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.split_layers = {4};
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

TEST(StoreCells, HashCoversEveryGridCoordinateAndPatterns) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4};
  grid.defenses = {sweep::Defense::Unprotected};
  sweep::Options opts;
  opts.patterns = 2000;
  const auto base = sweep::expand_cells(grid, opts)[0].config_hash;

  auto hash_with = [&](auto&& mutate) {
    sweep::Grid g = grid;
    sweep::Options o = opts;
    mutate(g, o);
    return sweep::expand_cells(g, o)[0].config_hash;
  };
  EXPECT_NE(hash_with([](sweep::Grid& g, sweep::Options&) {
              g.benchmarks = {"c880"};
            }),
            base);
  EXPECT_NE(hash_with([](sweep::Grid& g, sweep::Options&) {
              g.seeds = {2};
            }),
            base);
  EXPECT_NE(hash_with([](sweep::Grid& g, sweep::Options&) {
              g.split_layers = {5};
            }),
            base);
  EXPECT_NE(hash_with([](sweep::Grid& g, sweep::Options&) {
              g.defenses = {sweep::Defense::Proposed};
            }),
            base);
  EXPECT_NE(hash_with([](sweep::Grid&, sweep::Options& o) {
              o.patterns = 4000;
            }),
            base);
  EXPECT_NE(hash_with([](sweep::Grid& g, sweep::Options&) {
              g.scale = 0.05;
            }),
            base);
}

// Golden pins: these exact configurations must hash to these exact keys in
// every future release — otherwise existing stores silently stop resuming.
// If a hash change is intentional (recipe schema evolved), bump the
// "format" tag in cell_config_json and update these pins in the same PR.
TEST(StoreCells, GoldenConfigHashesAreStableAcrossReleases) {
  sweep::Grid grid;  // defaults: scale 0.02
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4};
  sweep::Options opts;
  opts.patterns = 2000;
  const auto cells = sweep::expand_cells(grid, opts);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].config_hash, "5b8b859189dacd44");  // unprotected
  EXPECT_EQ(cells[1].config_hash, "cd0f8c7f7faf748e");  // proposed

  sweep::Grid sb;
  sb.benchmarks = {"superblue1"};
  sb.seeds = {7};
  sb.split_layers = {5};
  sb.defenses = {sweep::Defense::Proposed};
  sb.scale = 0.1;
  sweep::Options sbo;
  sbo.patterns = 100000;
  EXPECT_EQ(sweep::expand_cells(sb, sbo)[0].config_hash, "22e14fde13acce6f");
}

TEST(StoreCells, DescribeNamesTheCell) {
  sweep::Grid grid;
  grid.benchmarks = {"c880"};
  grid.seeds = {3};
  grid.split_layers = {4};
  grid.defenses = {sweep::Defense::Proposed};
  const auto cells = sweep::expand_cells(grid, {});
  const auto text = sweep::describe(cells[0]);
  EXPECT_NE(text.find("c880"), std::string::npos);
  EXPECT_NE(text.find("seed=3"), std::string::npos);
  EXPECT_NE(text.find("M4"), std::string::npos);
  EXPECT_NE(text.find("proposed"), std::string::npos);
  EXPECT_NE(text.find(cells[0].config_hash), std::string::npos);
}

// --------------------------------------------------------- materialize ---

TEST(StoreMaterialize, RebuildsGridMajorRowsAndListsMissing) {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {4, 5};
  grid.defenses = {sweep::Defense::Unprotected};
  sweep::Options opts;
  opts.patterns = 1000;
  const auto cells = sweep::expand_cells(grid, opts);
  ASSERT_EQ(cells.size(), 2u);

  sweep::StoreContents store;
  sweep::StoreRecord rec;
  rec.config_hash = cells[1].config_hash;  // only the M5 cell is logged
  rec.row.benchmark = "c432";
  rec.row.seed = 1;
  rec.row.split_layer = 5;
  rec.row.defense = sweep::Defense::Unprotected;
  rec.row.ccr = 0.75;
  store.records[rec.config_hash] = rec;

  const auto mat = sweep::materialize(grid, opts, store);
  ASSERT_EQ(mat.result.rows.size(), 1u);
  EXPECT_EQ(mat.result.rows[0].split_layer, 5);
  EXPECT_EQ(mat.result.rows[0].ccr, 0.75);
  EXPECT_EQ(mat.result.resumed_cells, 1u);
  EXPECT_EQ(mat.result.computed_cells, 0u);
  ASSERT_EQ(mat.missing.size(), 1u);
  EXPECT_EQ(mat.missing[0].split_layer, 4);
  EXPECT_EQ(mat.missing[0].config_hash, cells[0].config_hash);
}

}  // namespace
