// Event-sourced sweep store: append-only result log + materialized tables.
//
// The sweep's headline tables are a {benchmark × seed × split × defense}
// cross product, and before this module every invocation recomputed the
// whole grid in memory — one crash or config tweak lost every completed
// cell. The store follows the event-sourced scrape→materialize shape: the
// *log* is the source of truth (one immutable JSON record per completed
// cell, appended and fsync'd the moment its task finishes), and tables are
// *materializations* rebuilt from the log on demand.
//
//   run(store)  ──append──▶  results.jsonl  ──materialize──▶  Result tables
//                             (JSONL, one                      (CSV/JSON/
//                              record/cell)                     summary)
//
// Records are keyed by a config hash — util::config_hash over the cell's
// canonical recipe JSON: (benchmark, seed, split_layer, defense, attacker,
// patterns, scale, flow options via core::canonical_flow_json, randomize
// options for protected cells, baseline recipe constants for baseline
// defenses). Anything that can change a metric is in the hash; the
// scheduling knob (jobs), the grid that expanded the cell and wall time
// are NOT — two runs differing only in those resolve to the same cell.
// tests/test_store.cpp pins golden hashes across releases.
//
// Consequences the sweep builds on:
//   - crash-safe resume: `run` with Options::resume skips cells whose hash
//     is already in the log and computes only the missing ones; a resumed
//     run's rows are bit-identical to a from-scratch run (wall_ms aside);
//   - sub-grids: sweeps over parts of a grid (one per host, say) each
//     append to their own log, and the concatenation of those logs
//     materializes byte-identically to the whole grid's table (records
//     are keyed, so merge order is irrelevant and duplicate keys are
//     last-wins);
//   - provenance: every record embeds the full canonical recipe, so any
//     table row can be traced to the exact configuration that produced it.
//
// wall_ms provenance: the stored wall time is the *task* wall (one layout
// shared by all split layers of a (benchmark, seed, defense) triple), it
// is excluded from the config hash, and it is the one field outside the
// resume/sub-grid determinism contract — scripts/check_sweep_perf.py
// reads perf baselines from it, tables merely display it.
#pragma once

#include "sweep/sweep.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sm::sweep {

/// Identity of one grid cell within a sweep configuration.
struct CellRef {
  std::size_t task_index = 0;  ///< (benchmark, seed, defense) triple, grid-major
  std::string benchmark;
  std::uint64_t seed = 0;
  Defense defense = Defense::Unprotected;
  int split_layer = 0;
  Attacker attacker = Attacker::Proximity;
  Workload workload = Workload::Iscas85;
  std::string config_hash;  ///< util::config_hash(cell_config_json(...))
};

/// "c432 (iscas85) seed=1 M4 unprotected attacker=proximity [<hash>]" — the
/// full canonical recipe coordinates, so dry-run and missing-cell listings
/// are auditable by eye across every axis.
std::string describe(const CellRef& cell);

/// The canonical recipe JSON a cell's config hash digests. Pure function
/// of its arguments; `sm_flow sweep --dry-run` prints the derived hashes
/// and tests/test_store.cpp + tests/test_store_axes.cpp pin golden values.
/// Axis extensions append *conditional* keys only (an "attacker" key for
/// non-proximity attackers, a "baseline" parameter block for baseline
/// defenses), so every pre-extension proximity-only record keeps its hash
/// and old stores keep resolving under --resume.
std::string cell_config_json(const Grid& grid, const Options& opts,
                             const std::string& benchmark, Workload workload,
                             std::uint64_t seed, Defense defense,
                             int split_layer, Attacker attacker);

/// Expand the grid into grid-major cells (benchmark, seed, defense major;
/// then split, attacker innermost — exactly the row order of Result::rows)
/// with config hashes. Validates every benchmark name and split layer up
/// front (std::invalid_argument), even when the other list is empty — a
/// grid built in code never passes through Grid::set's checks.
std::vector<CellRef> expand_cells(const Grid& grid, const Options& opts);

/// One event in the log: a completed cell and its full recipe. `row`
/// carries the grid coordinates and metrics; `row.wall_ms` is the task
/// wall time (see header note — provenance only, outside the hash and the
/// determinism contract).
struct StoreRecord {
  std::string config_hash;
  Row row;
  std::size_t patterns = 0;
  double scale = 0.0;
  std::string config_json;  ///< full canonical recipe (may be empty on load)
  /// Quarantine marker (sweep/supervisor.hpp): a cell whose workers died
  /// --max-retries times is recorded with `failed` set — its `row` carries
  /// the grid coordinates but no metrics — so resume skips it instead of
  /// re-dying on it and materialize reports it separately from missing
  /// cells. Serialized as a *conditional* `"status":"failed"` key (plus the
  /// attempt count), so every healthy record's bytes — and therefore every
  /// pre-existing log — are untouched.
  bool failed = false;
  std::size_t attempts = 0;  ///< worker deaths that led to the quarantine
};

/// Serialize to one JSONL line (no trailing newline) / parse one line.
/// Doubles round-trip exactly (util::format_double), so a materialized row
/// is bit-identical to the computed one. parse throws std::invalid_argument
/// on torn or malformed lines.
std::string to_store_line(const StoreRecord& rec);
StoreRecord parse_store_line(const std::string& line);

/// Append-only log writer: opens O_APPEND, writes one record per line and
/// fsyncs each append — a crash never loses an acknowledged cell and at
/// most tears the final line (which load_store tolerates). Creating a new
/// log also fsyncs the parent directory: an fsync'd file in an un-fsync'd
/// directory can vanish wholesale on power loss. Thread-safe: workers
/// append as their tasks complete, each line is written with a single
/// write(2) (looped on EINTR/short writes). append() is also where the
/// util/fault injection points live (slow-cell, crash-before-append,
/// torn-write, crash-after-append — in that order, with the record's
/// config hash as context), because a record append is exactly the
/// durability edge every crash-safety claim is about.
class StoreWriter {
 public:
  explicit StoreWriter(std::string path);  ///< throws std::runtime_error
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  void append(const StoreRecord& rec);  ///< throws std::runtime_error on I/O
  const std::string& path() const { return path_; }

 private:
  std::mutex mu_;
  std::string path_;
  int fd_ = -1;
};

/// A loaded (possibly merged) store: records keyed by config hash,
/// duplicate keys last-wins — so `cat a.jsonl b.jsonl` of two sub-grid
/// logs or re-running a sweep into the same log are both valid stores. One
/// exception to last-wins: a completed (ok) record is never overwritten by
/// a `failed` quarantine record — success is sticky, whatever order logs
/// merge in (a failed record only marks that workers died *while the cell
/// was missing*).
struct StoreContents {
  std::map<std::string, StoreRecord> records;
  std::size_t lines = 0;       ///< non-empty lines seen
  std::size_t skipped = 0;     ///< unparsable lines (torn crash tails)
  std::size_t duplicates = 0;  ///< keys overwritten by a later record
};

/// Read and merge store logs in order. With `must_exist` false a missing
/// file contributes nothing (first run of a resumable sweep); with true it
/// throws std::runtime_error (materialize of a typo'd path must not
/// silently produce an empty table).
StoreContents load_store(const std::vector<std::string>& paths,
                         bool must_exist);

/// Incremental tail reader over one store log. Remembers the byte offset
/// of the consumed prefix, so polling after an append costs O(new bytes)
/// instead of O(log) — the supervisor polls once per worker event, and
/// before this class every poll re-parsed the whole log from byte 0.
/// Line parsing and merge semantics are exactly load_store's (keyed,
/// last-wins, success sticky); load_store itself is one
/// construct-and-drain of this reader per path, so the two can never
/// disagree about a log's contents.
class StoreReader {
 public:
  explicit StoreReader(std::string path) : path_(std::move(path)) {}

  /// Parse every line appended since the last poll and merge it into
  /// `into` (the caller keeps one StoreContents across polls). A trailing
  /// line not yet '\n'-terminated is left unconsumed: a concurrent
  /// StoreWriter lands each record with a single O_APPEND write(2) of a
  /// terminated line, so an unterminated tail is either a record still in
  /// flight or a torn crash line — and once the next append lands behind
  /// a torn tail, the glued "tail+record" line parses as garbage and is
  /// counted in `skipped`, byte-for-byte what load_store sees in a merged
  /// log with a mid-file tear. Only a final poll with `consume_tail` true
  /// (no writer left) judges a still-unterminated tail, exactly as
  /// load_store's getline does at EOF. A missing file contributes
  /// nothing; a file that shrank (log rotated or replaced) resets the
  /// reader to byte 0 and re-merges — records are keyed, so re-reads are
  /// idempotent. Returns the number of records merged.
  std::size_t poll(StoreContents& into, bool consume_tail = false);

  const std::string& path() const { return path_; }
  std::uint64_t offset() const { return offset_; }  ///< consumed-prefix bytes

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
};

/// Rebuild a Result from the log: grid-major rows for every cell whose
/// hash the store holds, absent cells listed in `missing`. The table is a
/// pure materialization — compute fields (jobs, cache_stats, sweep
/// wall_ms) stay zero/defaults and every row's wall_ms comes from its
/// record.
/// `missing` = cells with no record at all (the sweep is *incomplete*);
/// `quarantined` = cells whose record is a failed quarantine marker (the
/// sweep is *degraded* — every attempt died). Both sorted by config hash.
struct Materialized {
  Result result;
  std::vector<CellRef> missing;
  std::vector<CellRef> quarantined;
};
Materialized materialize(const Grid& grid, const Options& opts,
                         const StoreContents& store);

}  // namespace sm::sweep
