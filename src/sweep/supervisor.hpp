// Fault-tolerant sweep supervisor: the long-running coordinator layer on
// top of the event-sourced store.
//
// `sm_flow sweep` computes cells in-process: one crash, hang, or OOM takes
// the whole grid down and recovery is a manual --resume. At
// millions-of-cells scale the system must ride through those failures on
// its own, so `serve()` moves the computation into *child worker
// processes* it forks and monitors, and keeps only coordination state —
// which is itself reconstructible from the store log at any time:
//
//             ┌────────────────────────────────────────────┐
//             │ serve(): expand grid → load store → missing │
//             │   dispatch / watchdog / retry / quarantine  │
//             └──┬──────────────┬──────────────┬────────────┘
//        fork+exec         fork+exec      SIGKILL on deadline
//           ▼                  ▼                ▼
//   sm_flow sweep --resume   worker …         worker …        (children)
//           │ append (fsync'd, O_APPEND)        │
//           └──────────────► results.jsonl ◄────┘
//                        (single source of truth)
//
// Robustness semantics, all test- and CI-enforced:
//  - one *work unit* = one (benchmark, seed, defense) task (its cells
//    share a layout); the worker is `sm_flow sweep` on a single-task grid
//    with --resume, so it recomputes exactly the missing cells and appends
//    each one durably — supervisor and worker share no protocol beyond
//    the store log, which is why worker death loses nothing acknowledged;
//  - watchdog: each dispatch gets a wall-clock budget of
//    cell_timeout_s × (missing cells), SIGKILL on expiry — a hung worker
//    (deadlock, runaway solver) is indistinguishable from a dead one
//    one deadline later;
//  - retry with exponential backoff + deterministic jitter
//    (backoff_delay_ms): a dead worker's task re-queues, and because the
//    worker resumes from the store, every attempt that landed at least one
//    record is forward progress;
//  - blame and quarantine: after a death, the first still-missing cell in
//    task order is charged (records append in cell order, so it is the
//    cell that was in flight); a cell charged max_retries times is
//    *quarantined* — a "status":"failed" record is appended under its
//    config hash (sweep/store.hpp) and the sweep continues without it.
//    Resume skips quarantined cells, materialize reports them separately
//    and exits 2 ("degraded") instead of 1 ("incomplete").
//
// Convergence invariant (the headline, held by CI chaos smokes): under any
// schedule of injected worker deaths (util/fault.hpp points, armed via
// SM_FAULT which workers inherit) in which each cell can eventually
// complete, serve() converges and the materialized table is byte-identical
// (modulo wall columns) to a clean single-process sweep — worker death,
// torn log tails, and restarts are invisible in the results.
//
// serve() itself stays fault-free by construction: it disarms this
// process's SM_FAULT schedule on entry (children still inherit the
// environment), computes nothing, and holds no result state — if the
// supervisor itself dies, re-running serve() resumes from the log exactly
// like a worker would.
#pragma once

#include "sweep/store.hpp"
#include "sweep/sweep.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sm::sweep {

/// One dispatchable work unit: a (benchmark, seed, defense) task and all
/// of its grid cells (task-major order, attacker innermost — the order
/// records append in, which blame attribution relies on).
struct WorkUnit {
  std::size_t task_index = 0;
  std::string benchmark;
  std::uint64_t seed = 0;
  Defense defense = Defense::Unprotected;
  std::vector<CellRef> cells;
};

struct ServeOptions {
  /// Sweep options forwarded to workers. store_path is required (the log
  /// IS the coordination medium); resume is owned by the supervisor and
  /// must be left false.
  Options sweep;
  std::size_t workers = 1;     ///< max concurrent worker processes; 0 = hw
  double cell_timeout_s = 300; ///< watchdog budget per missing cell
  std::size_t max_retries = 3; ///< worker deaths before a cell is quarantined
  double backoff_base_ms = 100;  ///< first retry delay; doubles per attempt
  std::uint64_t backoff_seed = 1;  ///< jitter stream seed
  /// Override the worker command for a unit (tests dispatch /bin/sh stand-
  /// ins); null = the real thing, self_exe_path() + "sweep" on a
  /// single-task --grid with --resume --store.
  std::function<std::vector<std::string>(const WorkUnit&)> command;
  /// Progress sink ("spawned…", "worker died…", "quarantined…"); null =
  /// silent.
  std::function<void(const std::string&)> log;
};

struct ServeReport {
  std::size_t total_cells = 0;
  std::size_t already_stored = 0;  ///< complete before we started
  std::size_t pre_quarantined = 0; ///< failed records already in the log
  std::size_t computed = 0;        ///< cells that landed during this serve
  std::size_t quarantined = 0;     ///< cells this serve quarantined
  std::size_t workers_spawned = 0;
  std::size_t worker_deaths = 0;   ///< crashes + watchdog kills
  std::size_t watchdog_kills = 0;  ///< subset of worker_deaths
  double wall_ms = 0;

  /// Every cell accounted for: nothing missing, though possibly degraded.
  bool complete() const {
    return already_stored + computed + pre_quarantined + quarantined ==
           total_cells;
  }
  bool degraded() const { return pre_quarantined + quarantined > 0; }
};

/// Deterministic retry delay: backoff_base_ms · 2^(attempt-1), capped at
/// 60 s, times a jitter factor in [1, 1.5) drawn from (seed, salt,
/// attempt) — pure function, so a retry schedule is reproducible and
/// testable. `salt` is the work unit's task index (de-synchronizes
/// sibling tasks that died together).
double backoff_delay_ms(std::size_t attempt, double base_ms,
                        std::uint64_t seed, std::uint64_t salt);

/// The grid spec ("benchmarks=…;seeds=…;…") of the single-task grid a
/// worker runs for `unit` — Grid::parse of it expands exactly the unit's
/// cells with identical config hashes (round-trip is test-enforced; scale
/// rides through util::format_double so the double is bit-exact).
std::string worker_grid_spec(const Grid& grid, const WorkUnit& unit);

/// Expand the grid into work units (every task, in task order).
std::vector<WorkUnit> work_units(const Grid& grid, const Options& opts);

/// Run the supervisor until every cell of `grid` is stored or quarantined.
/// Throws std::invalid_argument on option misuse (no store path, resume
/// set, zero timeout/retries) and std::runtime_error when
/// workers cannot be spawned at all.
ServeReport serve(const Grid& grid, const ServeOptions& opts);

}  // namespace sm::sweep
