// Tests for the fault-tolerant sweep supervisor (sweep/supervisor.hpp) and
// the quarantine semantics it layers onto the store: work-unit expansion,
// worker grid-spec round trips, deterministic backoff, the serve() loop
// against /bin/sh stand-in workers (success, poison cell, partial
// progress, watchdog killing the worker's whole process group, pre-stored
// state), workers dying with their supervisor, failed-record serialization
// with ok-beats-failed merging, degraded materialization, and sweep resume
// skipping quarantined cells.
#include "sweep/supervisor.hpp"

#include "sweep/store.hpp"
#include "util/subprocess.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

using namespace sm;

// A small 2-cell grid: one (benchmark, seed, defense) task, two splits.
sweep::Grid two_cell_grid() {
  sweep::Grid grid;
  grid.benchmarks = {"c432"};
  grid.seeds = {1};
  grid.split_layers = {3, 4};
  grid.defenses = {sweep::Defense::Unprotected};
  return grid;
}

// A synthetic completed record for `cell` — coordinates + dummy metrics,
// enough for load_store/serve to treat the cell as done.
sweep::StoreRecord record_for(const sweep::Grid& grid,
                              const sweep::Options& opts,
                              const sweep::CellRef& cell) {
  sweep::StoreRecord rec;
  rec.config_hash = cell.config_hash;
  rec.patterns = opts.patterns;
  rec.scale = grid.scale;
  rec.row.benchmark = cell.benchmark;
  rec.row.seed = cell.seed;
  rec.row.split_layer = cell.split_layer;
  rec.row.defense = cell.defense;
  rec.row.attacker = cell.attacker;
  rec.row.ccr = 0.5;
  rec.row.open_sinks = 7;
  return rec;
}

std::string temp_store(const char* name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& l : lines) out << l << "\n";
}

/// True once `pid` has died, polling for up to 2 s (SIGKILL is delivered
/// asynchronously). A zombie counts as dead: PID 1 in a container may never
/// reap the orphans re-parented to it.
bool eventually_gone(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  for (int i = 0; i < 400; ++i) {
    std::ifstream in(path);
    std::string stat;
    if (!std::getline(in, stat)) return true;
    // The state follows the parenthesized command name.
    const auto close = stat.rfind(')');
    if (close != std::string::npos && close + 2 < stat.size() &&
        (stat[close + 2] == 'Z' || stat[close + 2] == 'X'))
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// A ServeOptions::command that runs `script` through /bin/sh regardless of
// the work unit — the stand-in workers the serve() tests dispatch.
sweep::ServeOptions sh_serve(const std::string& store,
                             const std::string& script) {
  sweep::ServeOptions opts;
  opts.sweep.store_path = store;
  opts.cell_timeout_s = 60;
  opts.backoff_base_ms = 1;
  opts.command = [script](const sweep::WorkUnit&) {
    return std::vector<std::string>{"/bin/sh", "-c", script};
  };
  return opts;
}

// ------------------------------------------------------------- units ---

TEST(WorkUnits, PartitionCellsTaskMajor) {
  sweep::Grid grid;
  grid.benchmarks = {"c432", "c880"};
  grid.seeds = {1, 2};
  grid.split_layers = {3, 4};
  grid.defenses = {sweep::Defense::Unprotected, sweep::Defense::Proposed};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  const sweep::Options opts;

  const auto cells = sweep::expand_cells(grid, opts);
  const auto units = sweep::work_units(grid, opts);
  ASSERT_EQ(units.size(), 8u);  // 2 benchmarks x 2 seeds x 2 defenses

  // Concatenating the units' cells reproduces expand_cells exactly, and
  // every unit is homogeneous in its task coordinates.
  std::size_t k = 0;
  for (const auto& u : units) {
    ASSERT_EQ(u.cells.size(), 4u);  // 2 splits x 2 attackers
    for (const auto& cell : u.cells) {
      EXPECT_EQ(cell.config_hash, cells[k].config_hash);
      EXPECT_EQ(cell.benchmark, u.benchmark);
      EXPECT_EQ(cell.seed, u.seed);
      EXPECT_EQ(cell.defense, u.defense);
      EXPECT_EQ(cell.task_index, u.task_index);
      ++k;
    }
  }
  EXPECT_EQ(k, cells.size());
}

TEST(WorkerGridSpec, RoundTripsToIdenticalHashes) {
  sweep::Grid grid;
  grid.benchmarks = {"c432", "c880"};
  grid.seeds = {1, 9};
  grid.split_layers = {3, 4, 5};
  grid.defenses = {sweep::Defense::Proposed, sweep::Defense::PinSwap};
  grid.attackers = {sweep::Attacker::Proximity, sweep::Attacker::CRouting};
  grid.scale = 1.0 / 3.0;  // no short decimal form: bit-exactness matters
  const sweep::Options opts;

  for (const auto& unit : sweep::work_units(grid, opts)) {
    const auto spec = sweep::worker_grid_spec(grid, unit);
    const auto worker_grid = sweep::Grid::parse(spec);
    EXPECT_EQ(worker_grid.scale, grid.scale) << spec;
    const auto worker_cells = sweep::expand_cells(worker_grid, opts);
    ASSERT_EQ(worker_cells.size(), unit.cells.size()) << spec;
    for (std::size_t i = 0; i < worker_cells.size(); ++i)
      EXPECT_EQ(worker_cells[i].config_hash, unit.cells[i].config_hash)
          << spec;
  }
}

// ----------------------------------------------------------- backoff ---

TEST(Backoff, DeterministicJitteredAndCapped) {
  // Pure function of (attempt, base, salt).
  EXPECT_EQ(sweep::backoff_delay_ms(0, 100, 0), 0.0);
  EXPECT_EQ(sweep::backoff_delay_ms(3, 100, 5),
            sweep::backoff_delay_ms(3, 100, 5));
  // Exponential envelope with jitter in [1, 1.5).
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    const double expo = 100.0 * static_cast<double>(1u << (attempt - 1));
    const double d = sweep::backoff_delay_ms(attempt, 100, 0);
    EXPECT_GE(d, expo) << attempt;
    EXPECT_LT(d, 1.5 * expo) << attempt;
  }
  // The exponential part caps at 60 s no matter how many attempts.
  const double huge = sweep::backoff_delay_ms(40, 1000, 0);
  EXPECT_GE(huge, 60000.0);
  EXPECT_LT(huge, 90000.0);
  // Different salts (task indices) de-synchronize sibling retries.
  EXPECT_NE(sweep::backoff_delay_ms(1, 100, 0),
            sweep::backoff_delay_ms(1, 100, 1));
}

// ------------------------------------------------------------- serve ---

TEST(Serve, ValidatesOptions) {
  const auto grid = two_cell_grid();
  sweep::ServeOptions opts;  // no store path
  EXPECT_THROW(sweep::serve(grid, opts), std::invalid_argument);
  opts.sweep.store_path = temp_store("sm_serve_validate.jsonl");
  opts.sweep.resume = true;
  EXPECT_THROW(sweep::serve(grid, opts), std::invalid_argument);
  opts.sweep.resume = false;
  opts.cell_timeout_s = 0;
  EXPECT_THROW(sweep::serve(grid, opts), std::invalid_argument);
  opts.cell_timeout_s = 60;
  opts.max_retries = 0;
  EXPECT_THROW(sweep::serve(grid, opts), std::invalid_argument);
}

TEST(Serve, BadWorkerCommandSurfacesAsError) {
  const auto grid = two_cell_grid();
  auto opts = sh_serve(temp_store("sm_serve_exec_fail.jsonl"), "exit 0");
  opts.command = [](const sweep::WorkUnit&) {
    return std::vector<std::string>{"/no/such/binary/anywhere"};
  };
  EXPECT_THROW(sweep::serve(grid, opts), std::runtime_error);
}

TEST(Serve, ConvergesWhenWorkersAppendRecords) {
  const auto grid = two_cell_grid();
  const auto store = temp_store("sm_serve_happy.jsonl");
  const auto payload = temp_store("sm_serve_happy_payload.jsonl");

  sweep::ServeOptions opts;
  opts.sweep.store_path = store;
  const auto cells = sweep::expand_cells(grid, opts.sweep);
  ASSERT_EQ(cells.size(), 2u);
  std::vector<std::string> lines;
  for (const auto& cell : cells)
    lines.push_back(sweep::to_store_line(record_for(grid, opts.sweep, cell)));
  write_lines(payload, lines);

  opts = sh_serve(store, "cat " + payload + " >> " + store);
  const auto report = sweep::serve(grid, opts);
  EXPECT_EQ(report.total_cells, 2u);
  EXPECT_EQ(report.computed, 2u);
  EXPECT_EQ(report.workers_spawned, 1u);
  EXPECT_EQ(report.worker_deaths, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());

  const auto loaded = sweep::load_store({store}, /*must_exist=*/true);
  EXPECT_EQ(loaded.records.size(), 2u);
  std::remove(store.c_str());
  std::remove(payload.c_str());
}

TEST(Serve, PartialProgressPerAttemptStillConverges) {
  // Each attempt lands exactly one record, then dies — the store makes
  // every attempt forward progress. The second attempt lands the last
  // missing record before dying, and a worker whose unit is complete
  // counts as a success even if it died on the way out (crash-after-append
  // is invisible), so only the first death is charged.
  const auto grid = two_cell_grid();
  const auto store = temp_store("sm_serve_partial.jsonl");
  const auto l0 = temp_store("sm_serve_partial_l0.jsonl");
  const auto l1 = temp_store("sm_serve_partial_l1.jsonl");

  sweep::ServeOptions opts;
  opts.sweep.store_path = store;
  const auto cells = sweep::expand_cells(grid, opts.sweep);
  ASSERT_EQ(cells.size(), 2u);
  write_lines(l0, {sweep::to_store_line(record_for(grid, opts.sweep, cells[0]))});
  write_lines(l1, {sweep::to_store_line(record_for(grid, opts.sweep, cells[1]))});

  const std::string script =
      "if ! grep -q " + cells[0].config_hash + " " + store + "; then cat " +
      l0 + " >> " + store + "; exit 70; fi; " +
      "if ! grep -q " + cells[1].config_hash + " " + store + "; then cat " +
      l1 + " >> " + store + "; exit 70; fi; exit 0";
  opts = sh_serve(store, script);
  opts.max_retries = 5;
  const auto report = sweep::serve(grid, opts);
  EXPECT_EQ(report.computed, 2u);
  EXPECT_EQ(report.workers_spawned, 2u);
  EXPECT_EQ(report.worker_deaths, 1u);  // the first attempt; the second won
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.degraded());
  std::remove(store.c_str());
  std::remove(l0.c_str());
  std::remove(l1.c_str());
}

TEST(Serve, QuarantinesPoisonCellsAfterMaxRetries) {
  const auto grid = two_cell_grid();
  const auto store = temp_store("sm_serve_poison.jsonl");
  auto opts = sh_serve(store, "exit 7");  // appends nothing, always dies
  opts.max_retries = 2;

  std::vector<std::string> log;
  opts.log = [&log](const std::string& m) { log.push_back(m); };
  const auto report = sweep::serve(grid, opts);

  // Blame walks the unit cell by cell: 2 deaths quarantine the first cell,
  // 2 more the second — bounded, no stall.
  EXPECT_EQ(report.total_cells, 2u);
  EXPECT_EQ(report.computed, 0u);
  EXPECT_EQ(report.worker_deaths, 4u);
  EXPECT_EQ(report.workers_spawned, 4u);
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.degraded());
  EXPECT_FALSE(log.empty());

  // The quarantine records are in the log, marked failed with the attempt
  // count, and a re-serve skips them without spawning anything.
  const auto loaded = sweep::load_store({store}, /*must_exist=*/true);
  ASSERT_EQ(loaded.records.size(), 2u);
  for (const auto& [hash, rec] : loaded.records) {
    EXPECT_TRUE(rec.failed) << hash;
    EXPECT_EQ(rec.attempts, 2u) << hash;
  }
  const auto again = sweep::serve(grid, opts);
  EXPECT_EQ(again.workers_spawned, 0u);
  EXPECT_EQ(again.pre_quarantined, 2u);
  EXPECT_TRUE(again.complete());
  EXPECT_TRUE(again.degraded());
  std::remove(store.c_str());
}

TEST(Serve, WatchdogKillsHungWorkers) {
  const auto grid = two_cell_grid();
  const auto store = temp_store("sm_serve_hang.jsonl");
  const auto pids = temp_store("sm_serve_hang.pids");
  // The hung worker is a shell waiting on a grandchild: the watchdog must
  // take down the worker's whole process group, not just the shell.
  auto opts = sh_serve(store, "sleep 30 & echo $! >> " + pids + "; wait");
  opts.cell_timeout_s = 0.05;  // 2 missing cells -> 100 ms deadline
  opts.max_retries = 1;        // first death quarantines

  const auto report = sweep::serve(grid, opts);
  EXPECT_EQ(report.watchdog_kills, 2u);
  EXPECT_EQ(report.worker_deaths, 2u);
  EXPECT_EQ(report.quarantined, 2u);
  EXPECT_TRUE(report.complete());

  // A worker killed before its shell got to record the pid leaves no line;
  // the 100 ms deadline leaves both shells ample time, so expect at least one.
  std::ifstream in(pids);
  std::size_t recorded = 0;
  for (pid_t pid = 0; in >> pid; ++recorded)
    EXPECT_TRUE(eventually_gone(pid)) << "grandchild " << pid << " survived";
  EXPECT_GE(recorded, 1u);
  EXPECT_LE(recorded, 2u);
  std::remove(store.c_str());
  std::remove(pids.c_str());
}

TEST(Subprocess, ChildDiesWithItsParent) {
  const auto pidfile = temp_store("sm_orphan.pid");
  // A stand-in supervisor: spawns a worker that records its pid, then
  // waits to be killed. SIGKILL gives it no chance to clean up.
  const pid_t supervisor = ::fork();
  ASSERT_GE(supervisor, 0);
  if (supervisor == 0) {
    try {
      const auto child = util::Child::spawn(
          {"/bin/sh", "-c", "echo $$ > " + pidfile + "; exec sleep 30"});
      ::pause();
    } catch (...) {
    }
    ::_exit(1);
  }
  pid_t worker = 0;
  for (int i = 0; i < 1000 && worker == 0; ++i) {
    std::ifstream in(pidfile);
    if (!(in >> worker)) {
      worker = 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ::kill(supervisor, SIGKILL);
  ::waitpid(supervisor, nullptr, 0);
  ASSERT_GT(worker, 0) << "worker never recorded its pid";
  EXPECT_TRUE(eventually_gone(worker)) << "worker " << worker << " survived";
  std::remove(pidfile.c_str());
}

TEST(Serve, SpawnsNothingWhenStoreAlreadyCovers) {
  const auto grid = two_cell_grid();
  const auto store = temp_store("sm_serve_covered.jsonl");

  sweep::ServeOptions opts;
  opts.sweep.store_path = store;
  const auto cells = sweep::expand_cells(grid, opts.sweep);
  auto ok = record_for(grid, opts.sweep, cells[0]);
  auto failed = record_for(grid, opts.sweep, cells[1]);
  failed.failed = true;
  failed.attempts = 3;
  write_lines(store,
              {sweep::to_store_line(ok), sweep::to_store_line(failed)});

  // Worker command would fail loudly if it ever ran.
  opts = sh_serve(store, "exit 1");
  const auto report = sweep::serve(grid, opts);
  EXPECT_EQ(report.workers_spawned, 0u);
  EXPECT_EQ(report.already_stored, 1u);
  EXPECT_EQ(report.pre_quarantined, 1u);
  EXPECT_EQ(report.computed, 0u);
  EXPECT_TRUE(report.complete());
  EXPECT_TRUE(report.degraded());
  std::remove(store.c_str());
}

// -------------------------------------------------- quarantine records ---

TEST(StoreFailed, ConditionalKeysRoundTrip) {
  const auto grid = two_cell_grid();
  const sweep::Options opts;
  const auto cells = sweep::expand_cells(grid, opts);

  // Healthy records carry neither key — pre-quarantine logs stay
  // byte-identical.
  const auto ok_line = sweep::to_store_line(record_for(grid, opts, cells[0]));
  EXPECT_EQ(ok_line.find("\"status\""), std::string::npos);
  EXPECT_EQ(ok_line.find("\"attempts\""), std::string::npos);

  auto failed = record_for(grid, opts, cells[0]);
  failed.failed = true;
  failed.attempts = 3;
  const auto line = sweep::to_store_line(failed);
  EXPECT_NE(line.find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(line.find("\"attempts\":3"), std::string::npos);

  const auto parsed = sweep::parse_store_line(line);
  EXPECT_TRUE(parsed.failed);
  EXPECT_EQ(parsed.attempts, 3u);
  EXPECT_EQ(parsed.config_hash, failed.config_hash);

  // Unknown status values are torn/foreign lines, not quietly ok.
  std::string bad = line;
  const auto pos = bad.find("\"failed\"");
  bad.replace(pos, 8, "\"wedged\"");
  EXPECT_THROW(sweep::parse_store_line(bad), std::invalid_argument);
}

TEST(StoreFailed, OkBeatsFailedWhateverTheMergeOrder) {
  const auto grid = two_cell_grid();
  const sweep::Options opts;
  const auto cells = sweep::expand_cells(grid, opts);
  const auto ok = record_for(grid, opts, cells[0]);
  auto failed = record_for(grid, opts, cells[0]);
  failed.failed = true;
  failed.attempts = 2;

  const auto path = temp_store("sm_store_ok_beats_failed.jsonl");
  // failed then ok: last wins as usual.
  write_lines(path,
              {sweep::to_store_line(failed), sweep::to_store_line(ok)});
  auto store = sweep::load_store({path}, /*must_exist=*/true);
  EXPECT_FALSE(store.records.at(ok.config_hash).failed);

  // ok then failed: success is sticky — the quarantine marker loses.
  write_lines(path,
              {sweep::to_store_line(ok), sweep::to_store_line(failed)});
  store = sweep::load_store({path}, /*must_exist=*/true);
  EXPECT_FALSE(store.records.at(ok.config_hash).failed);
  EXPECT_EQ(store.records.at(ok.config_hash).row.ccr, ok.row.ccr);

  // failed then failed: ordinary last-wins among quarantine markers.
  auto failed5 = failed;
  failed5.attempts = 5;
  write_lines(path,
              {sweep::to_store_line(failed), sweep::to_store_line(failed5)});
  store = sweep::load_store({path}, /*must_exist=*/true);
  EXPECT_TRUE(store.records.at(ok.config_hash).failed);
  EXPECT_EQ(store.records.at(ok.config_hash).attempts, 5u);
  std::remove(path.c_str());
}

TEST(StoreFailed, MaterializeReportsQuarantinedSeparately) {
  sweep::Grid grid = two_cell_grid();
  grid.split_layers = {3, 4, 5};  // 3 cells: one ok, one failed, one absent
  const sweep::Options opts;
  const auto cells = sweep::expand_cells(grid, opts);
  ASSERT_EQ(cells.size(), 3u);

  auto failed = record_for(grid, opts, cells[1]);
  failed.failed = true;
  failed.attempts = 1;
  const auto path = temp_store("sm_store_mat_quarantine.jsonl");
  write_lines(path, {sweep::to_store_line(record_for(grid, opts, cells[0])),
                     sweep::to_store_line(failed)});

  const auto store = sweep::load_store({path}, /*must_exist=*/true);
  const auto mat = sweep::materialize(grid, opts, store);
  ASSERT_EQ(mat.result.rows.size(), 1u);
  EXPECT_EQ(mat.result.rows[0].split_layer, cells[0].split_layer);
  ASSERT_EQ(mat.quarantined.size(), 1u);
  EXPECT_EQ(mat.quarantined[0].config_hash, cells[1].config_hash);
  ASSERT_EQ(mat.missing.size(), 1u);
  EXPECT_EQ(mat.missing[0].config_hash, cells[2].config_hash);
  std::remove(path.c_str());
}

TEST(SweepResume, SkipsQuarantinedCellsWithoutRecomputing) {
  // A real (tiny) sweep: quarantine one of two cells in the store, resume —
  // the poisoned cell must be skipped (not re-run), its row excluded, and
  // the surviving row bit-identical to a from-scratch run.
  sweep::Grid grid = two_cell_grid();
  sweep::Options opts;
  opts.patterns = 500;

  const auto clean = sweep::run(grid, opts);
  ASSERT_EQ(clean.rows.size(), 2u);

  const auto cells = sweep::expand_cells(grid, opts);
  auto failed = record_for(grid, opts, cells[0]);
  failed.failed = true;
  failed.attempts = 3;
  const auto path = temp_store("sm_sweep_resume_quarantine.jsonl");
  write_lines(path, {sweep::to_store_line(failed)});

  opts.store_path = path;
  opts.resume = true;
  const auto resumed = sweep::run(grid, opts);
  EXPECT_EQ(resumed.quarantined_cells, 1u);
  EXPECT_EQ(resumed.computed_cells, 1u);
  EXPECT_EQ(resumed.resumed_cells, 0u);
  ASSERT_EQ(resumed.rows.size(), 1u);
  EXPECT_EQ(resumed.rows[0].split_layer, clean.rows[1].split_layer);
  EXPECT_EQ(resumed.rows[0].ccr, clean.rows[1].ccr);
  EXPECT_EQ(resumed.rows[0].oer, clean.rows[1].oer);
  EXPECT_EQ(resumed.rows[0].hd, clean.rows[1].hd);
  EXPECT_EQ(resumed.rows[0].open_sinks, clean.rows[1].open_sinks);
  // The quarantine marker still stands in the log (nothing overwrote it).
  const auto store = sweep::load_store({path}, /*must_exist=*/true);
  EXPECT_TRUE(store.records.at(cells[0].config_hash).failed);
  std::remove(path.c_str());
}

}  // namespace
