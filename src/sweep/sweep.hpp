// Parallel attack-sweep driver.
//
// The paper's headline tables are a cross product — benchmarks × seeds ×
// split layers × defenses × attackers, each cell an independent
// place/route/(protect)/split/attack pipeline — which makes them
// embarrassingly parallel. This module expands such a product (`Grid`) into
// tasks, runs them through util::parallel_for — one task per worker thread
// at a time; nothing inside a task starts threads of its own — and
// aggregates the CCR/OER/HD metrics into a util::Table plus CSV/JSON
// exports.
//
// Determinism guarantee: every metric in the result depends only on the
// grid coordinates of its row — (benchmark, seed, split layer, defense,
// attacker) plus the sweep options — never on the number of worker threads
// or on scheduling order. Per-task randomness is derived with
// util::task_seed from the row's own grid seed, and rows live at fixed
// grid-major indices, so `run(grid, {.jobs = 8})` is bit-identical to
// `.jobs = 1` (only the wall-clock fields differ). tests/test_sweep.cpp and
// tests/test_sweep_attackers.cpp hold this as a regression for every
// attacker.
//
// Work granularity: one task per (benchmark, seed, defense) triple; the
// task's layout is computed once, split at every split layer of the grid,
// and each split view is attacked by every attacker (a layout does not
// depend on where it is later cut or who attacks it — recomputing it per
// cell would only burn CPU). Each (task × split × attacker) triple lands in
// its own pre-assigned result row.
//
// Cross-defense sharing: every defense of one (benchmark, seed) pair starts
// from the same generated netlist, attacks on the unprotected reference
// start from the same base placement and route, and the placement-keeping
// baselines (placement perturbation re-places nothing; routing perturbation
// / blockage re-route the base placement) start from the shared base
// placement. Those stage products live in a core::LayoutCache shared by the
// whole sweep (one entry per (benchmark, seed)), built at most once by
// whichever task needs them first; Result::cache_stats counts the builds —
// the base placement runs exactly once per (benchmark, seed), which
// tests/test_sweep.cpp asserts. (protect() and the pin-swap baseline still
// place their *erroneous* netlists: those placements are the defense
// mechanism itself and cannot be shared.)
//
// Persistence: the run loop is event-sourced around per-cell completion
// callbacks — with Options::store_path set, every finished cell is
// appended (fsync'd) to an append-only JSONL log keyed by a config hash
// of the cell's full recipe, and sweeps can resume (skip logged cells). A
// cell's hash does not depend on which grid expanded it, so sub-grids run
// as separate processes log exactly the records the whole grid would, and
// their logs merge into one store. The determinism guarantee extends to
// both: resumed == from-scratch and merged sub-grid logs == the whole
// grid, bit-identical modulo wall_ms and test-enforced. sweep/store.hpp is
// the substrate.
#pragma once

#include "core/pipeline.hpp"
#include "util/table.hpp"
#include "workloads/generator.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace sm::sweep {

/// Layout/defense configuration attacked by a sweep cell. Beyond the
/// paper's own flow the axis covers the prior-art baselines of
/// core/baselines.hpp, so every comparison row of Tables 4/5/6 is one
/// reproducible grid cell.
enum class Defense {
  Unprotected,    ///< plain layout of the original netlist
  Proposed,       ///< the paper's randomize + correct + lift flow
  PlacePerturb,   ///< Wang [5]: random bounded placement swaps
  Random,         ///< Sengupta [8]: swaps among all gates
  GColor,         ///< Sengupta [8]: swaps within equal-fan-in classes
  GType1,         ///< Sengupta [8]: swaps within identical cell types
  GType2,         ///< Sengupta [8]: swaps within same logic function
  PinSwap,        ///< Rajendran [3]: real connection swaps, BEOL-corrected
  RoutePerturb,   ///< Wang [12]: net elevation/detour above the split
  RouteBlockage,  ///< Magana [7]: lateral blockages force wires upward
};

const char* to_string(Defense d);
/// Parse a defense name ("unprotected"/"original", "proposed"/"protected",
/// "place-perturb", "random", "g-color", "g-type1", "g-type2", "pin-swap",
/// "route-perturb", "route-blockage"). Throws std::invalid_argument
/// otherwise.
Defense defense_from_string(const std::string& name);

/// True for the prior-art baselines (everything but Unprotected/Proposed).
bool is_baseline(Defense d);

/// The fixed recipe parameters of a baseline defense — the bench-harness
/// precedents (Tables 4/5/6), centralized so the run loop and the config
/// hash can never disagree. Sizes that depend on the instance (swap count,
/// blockage size) are expressed as rules (divisors), not absolutes: the
/// rule is what the hash covers.
struct BaselineRecipe {
  double fraction = 0.0;      ///< gate/net fraction perturbed
  double radius_frac = 0.0;   ///< swap radius as a die-width fraction
  std::size_t min_swaps = 0;  ///< pin-swap floor
  std::size_t swap_divisor = 0;  ///< swaps = max(min_swaps, nets / divisor)
  int blockages = 0;             ///< blockage count
  int blockage_max_layer = 0;    ///< blockages span M1..this
  int width_divisor = 0;  ///< blockage size = die width / width_divisor
};
/// The recipe for `d`; zeros for non-baseline defenses.
BaselineRecipe baseline_recipe(Defense d);

/// Attack model evaluated against a sweep cell's FEOL.
enum class Attacker {
  Proximity,  ///< network-flow proximity attack (recovers a netlist)
  CRouting,   ///< routing-centric candidate confinement (Magana [6])
  Sat,        ///< proximity recovery + SAT equivalence dis-correlation
};

const char* to_string(Attacker a);
/// Parse "proximity", "crouting", or "sat". Throws std::invalid_argument
/// otherwise.
Attacker attacker_from_string(const std::string& name);

/// Where a benchmark's generator spec comes from.
enum class Workload {
  Iscas85,    ///< published ISCAS-85 profile
  Superblue,  ///< published superblue profile, scaled by Grid::scale
  Synthetic,  ///< workloads::synthetic_profile (cell counts past the suites)
};

const char* to_string(Workload w);
/// The suite a benchmark name belongs to. Throws std::invalid_argument for
/// names no suite knows.
Workload workload_of(const std::string& benchmark);

/// The cross product a sweep evaluates. Benchmarks may mix ISCAS-85,
/// superblue (`scale` applies), and synthetic workload-generator names.
struct Grid {
  std::vector<std::string> benchmarks;
  std::vector<std::uint64_t> seeds = {1};
  std::vector<int> split_layers = {3, 4, 5};
  std::vector<Defense> defenses = {Defense::Unprotected, Defense::Proposed};
  std::vector<Attacker> attackers = {Attacker::Proximity};
  double scale = 0.02;  ///< superblue clone scale

  /// Rows run(...) will produce: the full product size.
  std::size_t combinations() const;

  /// Apply one grid key ("benchmarks", "seeds", "splits"/"split-layers",
  /// "defenses", "attackers", "scale") with a comma-separated value,
  /// replacing that dimension. Empty list entries are skipped. Numbers
  /// parse whole, as util::parse_count / parse_double read them. Throws
  /// std::invalid_argument on unknown keys, defenses, attackers, malformed
  /// numbers, a non-finite scale, or a split layer outside 1-9 (the metal
  /// stack's layers below the top one) — the --grid spec and the
  /// individual CLI flags share this validated path.
  void set(const std::string& key, const std::string& value);

  /// Parse a compact spec: semicolon-separated key=value pairs applied via
  /// set(), e.g.
  ///   "benchmarks=c432,c880;seeds=1,2;splits=3,4,5;defenses=proposed;"
  ///   "attackers=proximity,crouting;scale=0.02"
  /// Omitted keys keep the defaults above.
  static Grid parse(const std::string& spec);
};

struct Options {
  std::size_t jobs = 1;           ///< worker threads; 0 = hardware concurrency
  std::size_t patterns = 100000;  ///< simulation patterns for OER/HD

  /// Append-only result log (sweep/store.hpp). Empty = no store. When set,
  /// every completed cell is appended (and fsync'd) the moment its task
  /// finishes, so a crash loses only in-flight work.
  std::string store_path;
  /// Skip cells whose config hash already exists in `store_path` and
  /// compute only the missing ones; skipped rows are filled from the log.
  /// The resumed result is bit-identical to a from-scratch run (wall_ms
  /// aside) — test-enforced. Requires store_path; a missing log file is a
  /// fresh start, not an error.
  bool resume = false;
};

/// The flow recipe: the generator spec, FlowOptions and RandomizeOptions
/// every sweep cell of (benchmark, seed) uses, and the ones the benches and
/// `sm_flow` start from. task_flow is also what the store's config hash
/// covers (core::canonical_flow_json).
workloads::GenSpec task_spec(const std::string& benchmark, Workload workload,
                             double scale);
core::FlowOptions task_flow(const std::string& benchmark, Workload workload,
                            std::uint64_t seed, double scale);
core::RandomizeOptions task_randomize(std::uint64_t seed);

/// One evaluated grid cell. The metric columns are attacker-polymorphic:
///  - proximity: CCR / CCR-protected / OER / HD / open_sinks as before;
///  - crouting: open_sinks = #vpins, ccr = ccr_protected = match-in-list at
///    the middle bounding box, els = E[LS] there, oer = hd = 0 (crouting
///    confines the solution space, it recovers nothing to simulate);
///  - sat: proximity metrics plus `equiv` — the core::equivalence verdict
///    of the recovered netlist against the original (the dis-correlation
///    check: a defense "wins" when recovery is provably inequivalent).
struct Row {
  std::string benchmark;
  std::uint64_t seed = 0;
  int split_layer = 0;
  Defense defense = Defense::Unprotected;
  Attacker attacker = Attacker::Proximity;

  double ccr = 0.0;            ///< correct-connection rate, all open sinks
  double ccr_protected = 0.0;  ///< CCR restricted to randomized connections
  double oer = 0.0;            ///< recovered vs original netlist
  double hd = 0.0;
  std::size_t open_sinks = 0;
  std::size_t swaps = 0;    ///< defense swaps (0 for Unprotected)
  double els = 0.0;  ///< crouting E[LS] at the middle bbox; 0 otherwise
  /// SAT-attacker equivalence verdict of the recovered netlist vs the
  /// original: 1 Equivalent, 0 Inequivalent, 2 Unknown (budget exhausted
  /// or incomparable), -1 not applicable (non-sat attackers).
  int equiv = -1;
  /// Task wall time, recorded at task granularity (all splits of one
  /// (benchmark, seed, defense) task share one timer because they share
  /// one layout). Provenance only: excluded from the store's config hash
  /// and from every determinism contract (jobs-identity, resumed ==
  /// from-scratch, merged sub-grid logs == whole grid) — on resume it
  /// covers only the splits actually recomputed, and rows filled from the
  /// store carry the wall of the run that originally computed them.
  double wall_ms = 0.0;
};

/// Mean metrics of one (benchmark, defense, attacker) group over its seeds
/// and split layers. Vacuous cells — no open sink, so nothing was cut and
/// ProximityResult::ccr() reads 1.0 by convention — are left out.
struct Mean {
  double ccr = 0.0;
  double ccr_protected = 0.0;
  double oer = 0.0;
  double hd = 0.0;
  std::size_t cells = 0;  ///< cells averaged; 0 = every cell was vacuous

  /// `metric` (one of this mean's fields) as a table percentage, or "n/a"
  /// when no cell was averaged.
  std::string pct(double metric) const;
};
using MeanKey = std::tuple<std::string, Defense, Attacker>;

struct Result {
  /// Grid-major: benchmark, seed, defense, split, attacker (innermost).
  std::vector<Row> rows;
  std::size_t jobs = 1;   ///< resolved worker count actually used
  /// Always 1: the router runs on one thread. Kept declared only because
  /// perfbench/driver.cpp still reads it; it goes at the next change to
  /// the benchmark. Not exported by to_json.
  std::size_t router_jobs = 1;
  double wall_ms = 0.0;   ///< whole-sweep wall time
  /// Shared-stage build counters: netlists/base placements/base routes
  /// each run exactly once per (benchmark, seed) that needed them,
  /// independent of how many defenses rode on top (hits counts the
  /// reuses). The erroneous-netlist placements inside protect() are
  /// intentionally uncached and not counted here.
  core::LayoutCache::Stats cache_stats;
  /// Cells actually computed this invocation vs filled from the resume
  /// store; computed + resumed == rows.size().
  std::size_t computed_cells = 0;
  std::size_t resumed_cells = 0;
  /// Cells the resume store quarantined ("status":"failed" records written
  /// by sweep/supervisor.hpp after repeated worker deaths): skipped, not
  /// recomputed — a worker re-running a poison cell would just die again —
  /// and excluded from rows (they have no metrics). Always 0 without
  /// --resume or without a supervisor in the picture.
  std::size_t quarantined_cells = 0;

  /// Per-row table (one line per grid cell).
  util::Table table() const;
  /// One Mean per (benchmark, defense, attacker) present in rows, ordered
  /// by benchmark name, then defense and attacker in enum order — what the
  /// paper's Tables 4/5 report, and what summary() renders.
  std::map<MeanKey, Mean> means() const;
  util::Table summary() const;
  std::string to_csv() const;
  std::string to_json() const;
};

/// Run the sweep. Throws std::invalid_argument for unknown benchmark names,
/// split layers outside 1-9 and resume without a store path (before any
/// task runs);
/// exceptions thrown by a task propagate after the whole batch finishes
/// (lowest row index wins, see util::parallel_for). With
/// Options::store_path set, each completed cell is appended to the
/// append-only log as its task finishes (sweep/store.hpp); with resume,
/// cells already in the log are skipped and their rows filled from it.
Result run(const Grid& grid, const Options& opts);

}  // namespace sm::sweep
