#include "sweep/supervisor.hpp"

#include "util/config_hash.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/subprocess.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

namespace sm::sweep {
namespace {

/// Seed of the retry-jitter stream (backoff_delay_ms).
constexpr std::uint64_t kBackoffSeed = 1;

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Scheduling state of one work unit. Everything here is reconstructible
/// from the store log plus the attempt counters — the supervisor owns no
/// results, which is why its own death loses nothing either.
struct TaskState {
  WorkUnit unit;
  std::vector<std::size_t> missing;  ///< indices into unit.cells, ascending
  double not_before_ms = 0;          ///< backoff gate (steady-clock ms)
  bool queued = false;
};

struct Running {
  util::Child child;
  std::size_t task = 0;
  double deadline_ms = 0;
};

std::vector<std::string> default_command(const Grid& grid,
                                         const ServeOptions& opts,
                                         const WorkUnit& unit) {
  const std::string exe = util::self_exe_path();
  if (exe.empty())
    throw std::runtime_error(
        "serve: cannot resolve /proc/self/exe for worker dispatch");
  return {exe,
          "sweep",
          "--grid=" + worker_grid_spec(grid, unit),
          "--patterns=" + std::to_string(opts.sweep.patterns),
          "--store=" + opts.sweep.store_path,
          "--resume",
          "--summary-only"};
}

/// The quarantine record: grid coordinates + attempt count, no metrics.
StoreRecord quarantine_record(const Grid& grid, const Options& opts,
                              const CellRef& cell, std::size_t attempts) {
  StoreRecord rec;
  rec.config_hash = cell.config_hash;
  rec.failed = true;
  rec.attempts = attempts;
  rec.patterns = opts.patterns;
  rec.scale = grid.scale;
  rec.row.benchmark = cell.benchmark;
  rec.row.seed = cell.seed;
  rec.row.split_layer = cell.split_layer;
  rec.row.defense = cell.defense;
  rec.row.attacker = cell.attacker;
  rec.config_json =
      cell_config_json(grid, opts, cell.benchmark, cell.workload, cell.seed,
                       cell.defense, cell.split_layer, cell.attacker);
  return rec;
}

}  // namespace

double backoff_delay_ms(std::size_t attempt, double base_ms,
                        std::uint64_t salt) {
  if (attempt == 0) return 0;
  // Exponential, capped well below the watchdog scale: a backoff that
  // outgrows the work it gates is just a slower form of stalling.
  const std::size_t shift = std::min<std::size_t>(attempt - 1, 9);
  const double expo = std::min(base_ms * static_cast<double>(1ull << shift),
                               60000.0);
  // Jitter in [1, 1.5): a fleet of workers killed by the same fault must
  // not thunder back in lockstep. Deterministic in (salt, attempt) so a
  // retry schedule can be asserted in tests.
  const std::uint64_t draw =
      util::task_seed(kBackoffSeed, salt * 0x100000001b3ull + attempt);
  const double unit = static_cast<double>(draw >> 11) /
                      static_cast<double>(1ull << 53);
  return expo * (1.0 + 0.5 * unit);
}

std::string worker_grid_spec(const Grid& grid, const WorkUnit& unit) {
  std::ostringstream os;
  os << "benchmarks=" << unit.benchmark << ";seeds=" << unit.seed
     << ";splits=";
  for (std::size_t i = 0; i < grid.split_layers.size(); ++i)
    os << (i ? "," : "") << grid.split_layers[i];
  os << ";defenses=" << to_string(unit.defense) << ";attackers=";
  for (std::size_t i = 0; i < grid.attackers.size(); ++i)
    os << (i ? "," : "") << to_string(grid.attackers[i]);
  // format_double round-trips the double bit-exactly through Grid::parse,
  // so the worker's config hashes match the supervisor's.
  os << ";scale=" << util::format_double(grid.scale);
  return os.str();
}

std::vector<WorkUnit> work_units(const Grid& grid, const Options& opts) {
  const auto cells = expand_cells(grid, opts);
  const std::size_t cpt = grid.split_layers.size() * grid.attackers.size();
  std::vector<WorkUnit> units;
  if (cpt == 0) return units;
  units.reserve(cells.size() / cpt);
  for (std::size_t i = 0; i < cells.size(); i += cpt) {
    WorkUnit u;
    u.task_index = cells[i].task_index;
    u.benchmark = cells[i].benchmark;
    u.seed = cells[i].seed;
    u.defense = cells[i].defense;
    u.cells.assign(cells.begin() + static_cast<std::ptrdiff_t>(i),
                   cells.begin() + static_cast<std::ptrdiff_t>(i + cpt));
    units.push_back(std::move(u));
  }
  return units;
}

ServeReport serve(const Grid& grid, const ServeOptions& opts) {
  if (opts.sweep.store_path.empty())
    throw std::invalid_argument("serve: a store path is required");
  if (opts.sweep.resume)
    throw std::invalid_argument(
        "serve: the resume option is owned by the supervisor");
  if (opts.cell_timeout_s <= 0)
    throw std::invalid_argument("serve: cell timeout must be > 0");
  if (opts.max_retries < 1)
    throw std::invalid_argument("serve: max retries must be >= 1");
  // The supervisor must ride through the very faults it injects into its
  // workers: disarm this process's SM_FAULT schedule (children inherit the
  // environment variable itself, untouched).
  util::fault_arm("");

  const auto log = [&](const std::string& msg) {
    if (opts.log) opts.log(msg);
  };

  const double t0 = now_ms();
  ServeReport report;
  auto units = work_units(grid, opts.sweep);

  // Missing = grid cells with no record; failed records are already
  // quarantined (a prior serve gave up on them) and are not retried.
  // One incremental reader lives for the whole serve: the initial poll
  // pays O(log) once, every later poll (one per worker event) reads only
  // the bytes workers appended since. The tail is never consumed — a
  // worker may be mid-append; an unterminated line stays pending until
  // its newline lands (and a torn crash tail glues into the next append,
  // parsing as one skipped line, exactly load_store's view of it).
  StoreReader reader(opts.sweep.store_path);
  StoreContents stored;
  reader.poll(stored);
  std::vector<TaskState> tasks;
  tasks.reserve(units.size());
  for (auto& unit : units) {
    TaskState ts;
    ts.unit = std::move(unit);
    for (std::size_t ci = 0; ci < ts.unit.cells.size(); ++ci) {
      ++report.total_cells;
      const auto it = stored.records.find(ts.unit.cells[ci].config_hash);
      if (it == stored.records.end())
        ts.missing.push_back(ci);
      else if (it->second.failed)
        ++report.pre_quarantined;
      else
        ++report.already_stored;
    }
    tasks.push_back(std::move(ts));
  }

  // Opening the writer up front creates the log (and fsyncs its directory
  // entry) before any worker races us to it; it is only ever used for
  // quarantine records — workers append their own results.
  StoreWriter writer(opts.sweep.store_path);
  std::unordered_map<std::string, std::size_t> attempts;  // hash → deaths

  const std::size_t max_workers = util::resolve_jobs(opts.workers, tasks.size());
  std::vector<Running> running;
  running.reserve(max_workers);

  const auto pending = [&](const TaskState& ts) {
    return !ts.missing.empty() && !ts.queued;
  };

  // Poll the log's tail into the accumulated view and refresh a task's
  // missing list; returns how many of its cells landed since the last
  // look. O(bytes appended since the previous poll), not O(log).
  const auto refresh = [&](TaskState& ts) {
    reader.poll(stored);
    std::vector<std::size_t> still;
    std::size_t landed = 0;
    for (const std::size_t ci : ts.missing) {
      const auto it = stored.records.find(ts.unit.cells[ci].config_hash);
      if (it == stored.records.end())
        still.push_back(ci);
      else if (!it->second.failed)
        ++landed;
      // failed: quarantined (by us, moments ago) — drop silently.
    }
    ts.missing = std::move(still);
    report.computed += landed;
    return landed;
  };

  // One death event: charge the first still-missing cell (records append
  // in cell order, so it is the one that was in flight), quarantine it
  // once it has exhausted max_retries, and re-queue the task after an
  // exponentially backed-off, jittered delay.
  const auto on_death = [&](TaskState& ts, const std::string& why) {
    ++report.worker_deaths;
    const CellRef& blame = ts.unit.cells[ts.missing.front()];
    const std::size_t a = ++attempts[blame.config_hash];
    log("worker for " + ts.unit.benchmark + " seed=" +
        std::to_string(ts.unit.seed) + " " + to_string(ts.unit.defense) +
        " died (" + why + "), attempt " + std::to_string(a) + "/" +
        std::to_string(opts.max_retries) + " on " + describe(blame));
    if (a >= opts.max_retries) {
      writer.append(quarantine_record(grid, opts.sweep, blame, a));
      ts.missing.erase(ts.missing.begin());
      ++report.quarantined;
      log("quarantined " + describe(blame) + " after " + std::to_string(a) +
          " attempts");
    }
    if (!ts.missing.empty())
      ts.not_before_ms =
          now_ms() + backoff_delay_ms(a, opts.backoff_base_ms,
                                      ts.unit.task_index);
  };

  while (true) {
    const double now = now_ms();

    // Dispatch: fill free worker slots with ready tasks (backoff-gated).
    for (auto& ts : tasks) {
      if (running.size() >= max_workers) break;
      if (!pending(ts) || ts.not_before_ms > now) continue;
      const auto argv = opts.command ? opts.command(ts.unit)
                                     : default_command(grid, opts, ts.unit);
      Running r;
      r.child = util::Child::spawn(argv);
      r.task = static_cast<std::size_t>(&ts - tasks.data());
      r.deadline_ms =
          now + opts.cell_timeout_s * 1000.0 *
                    static_cast<double>(ts.missing.size());
      ts.queued = true;
      ++report.workers_spawned;
      log("spawned worker pid " + std::to_string(r.child.pid()) + " for " +
          ts.unit.benchmark + " seed=" + std::to_string(ts.unit.seed) + " " +
          to_string(ts.unit.defense) + " (" +
          std::to_string(ts.missing.size()) + " missing cells)");
      running.push_back(std::move(r));
    }

    // Reap: exits, and watchdog expiries escalated to SIGKILL.
    bool progressed = false;
    for (std::size_t i = running.size(); i-- > 0;) {
      Running& r = running[i];
      auto st = r.child.try_wait();
      bool timed_out = false;
      if (!st && now > r.deadline_ms) {
        r.child.kill(SIGKILL);
        st = r.child.wait();
        timed_out = true;
        ++report.watchdog_kills;
      }
      if (!st) continue;
      progressed = true;
      TaskState& ts = tasks[r.task];
      ts.queued = false;
      if (st->exited && st->code == 127)
        throw std::runtime_error(
            "serve: worker exec failed (exit 127) — bad worker command");
      refresh(ts);
      if (!ts.missing.empty())
        on_death(ts, timed_out ? "watchdog timeout" : st->describe());
      // A worker that landed every missing cell is a success even if it
      // died on the way out (crash-after-append) — the log has the truth.
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
    }

    const bool work_left =
        std::any_of(tasks.begin(), tasks.end(), pending) || !running.empty();
    if (!work_left) break;
    if (!progressed)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  report.wall_ms = now_ms() - t0;
  return report;
}

}  // namespace sm::sweep
