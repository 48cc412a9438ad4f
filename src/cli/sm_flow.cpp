// sm_flow: unified driver for the paper's pipeline (Patnaik et al., DAC'18).
//
//   sm_flow protect  — randomize, place, embed correction cells, lift, route,
//                      restore through the BEOL; prints swaps/OER/HD/PPA and
//                      optionally exports the erroneous Verilog / layout DEF.
//   sm_flow split    — cut the layout after the split layer; prints the
//                      FEOL fragment statistics an attacker would start from
//                      and optionally exports the FEOL-only DEF with VPINS.
//   sm_flow attack   — run the network-flow proximity attack on the FEOL;
//                      prints CCR / CCR-protected / OER / HD.
//   sm_flow report   — protected vs unprotected side-by-side: security and
//                      PPA in one table (the quickstart, tabulated).
//   sm_flow sweep    — parallel attack sweep over {benchmarks × seeds ×
//                      split layers × defenses}, each task on one worker
//                      thread (util::parallel_for); bit-identical metrics
//                      for any --jobs value. With --store the sweep
//                      appends every completed cell to an append-only
//                      JSONL log (crash-safe resume via --resume);
//                      logs of sub-grids run apart merge into one store.
//   sm_flow materialize — rebuild the sweep tables from store logs alone.
//   sm_flow serve    — fault-tolerant sweep supervisor: dispatches missing
//                      grid cells to child `sm_flow sweep` worker processes
//                      it forks and monitors (per-cell watchdog, retry with
//                      backoff, poison-cell quarantine). Survives worker
//                      crashes, hangs, and torn logs; converges to the same
//                      materialized table as a clean run.
//   sm_flow list     — available benchmark profiles.
//
// Every stage is deterministic in (bench, scale, seed), so later stages
// recompute earlier ones instead of deserializing them; use --out-* to export
// the artifacts a real tapeout handoff would ship.
#include "cli/flow_common.hpp"

#include "attack/proximity.hpp"
#include "core/defio.hpp"
#include "netlist/verilog.hpp"
#include "sweep/store.hpp"
#include "sweep/supervisor.hpp"
#include "sweep/sweep.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sm::cli {
namespace {

int usage(std::FILE* to) {
  std::fputs(
      "usage: sm_flow <command> [--options]\n"
      "\n"
      "commands:\n"
      "  protect   run the full protection flow and print its summary\n"
      "            [--out-verilog=F] erroneous netlist  [--out-def=F] layout\n"
      "  split     cut the layout, print FEOL fragment/vpin statistics\n"
      "            [--out-def=F] FEOL-only DEF with VPINS  [--unprotected]\n"
      "  attack    proximity attack on the FEOL; CCR/OER/HD\n"
      "            [--unprotected] [--no-direction] [--no-load] [--no-loops]\n"
      "            [--candidates=N] nearest drivers per sink (default 16;\n"
      "            0 = all pairs)\n"
      "  report    protected vs unprotected security + PPA table\n"
      "  sweep     parallel attack sweep over {benchmarks x seeds x split\n"
      "            layers x defenses x attackers}; metrics are bit-identical\n"
      "            for any --jobs value\n"
      "            [--jobs=N] worker threads over the grid's tasks\n"
      "            (0 = hardware)\n"
      "            [--grid=SPEC] [--benchmarks=a,b] [--seeds=1,2]\n"
      "            [--splits=3,4,5] [--defenses=unprotected,proposed,\n"
      "              place-perturb,random,g-color,g-type1,g-type2,\n"
      "              pin-swap,route-perturb,route-blockage]\n"
      "            [--attackers=proximity,crouting,sat] attacker axis:\n"
      "            network-flow proximity, crouting (concerted-routing\n"
      "            candidate lists), sat (proximity + SAT/sim equivalence\n"
      "            check of the recovered netlist)\n"
      "            [--quick] [--csv=F] [--json=F] [--summary-only]\n"
      "            (--bench/--seed/--split-layer/--attacker alias the grid\n"
      "            dimensions)\n"
      "            [--store=F] append every completed cell to an append-only\n"
      "            JSONL result log keyed by config hash (fsync per cell)\n"
      "            [--resume] skip cells already in the store, compute only\n"
      "            the missing ones (bit-identical to a from-scratch run)\n"
      "            [--dry-run] print the expanded cell list with config\n"
      "            hashes, then exit without running\n"
      "  materialize  rebuild sweep tables from store logs without running\n"
      "            anything: --store=F[,F2,...] plus the sweep grid flags;\n"
      "            [--csv=F] [--json=F] [--summary-only]\n"
      "            exit codes: 0 complete, 1 cells missing from the logs\n"
      "            (incomplete), 2 only quarantined/failed cells absent\n"
      "            (degraded) — both listed sorted on stderr\n"
      "  serve     fault-tolerant sweep supervisor: computes the missing\n"
      "            cells of the grid by forking `sm_flow sweep` worker\n"
      "            processes and riding through their failures\n"
      "            --store=F (required) plus the sweep grid flags\n"
      "            [--workers=N] concurrent worker processes (default 1)\n"
      "            [--cell-timeout=SEC] watchdog wall-clock budget per\n"
      "            missing cell, SIGKILL on expiry (default 300)\n"
      "            [--max-retries=K] worker deaths charged to a cell before\n"
      "            it is quarantined as \"status\":\"failed\" (default 3)\n"
      "            [--backoff-base=MS] first retry delay, doubled per\n"
      "            attempt with deterministic jitter (default 100)\n"
      "            [--verbose] per-worker lifecycle log on stdout\n"
      "            exit codes: 0 converged complete, 2 converged degraded\n"
      "            (some cells quarantined)\n"
      "  list      available benchmark profiles\n"
      "\n"
      "common options:\n"
      "  --bench=NAME     ISCAS-85 or superblue profile (default c880)\n"
      "  --scale=F        superblue clone scale (default 0.02)\n"
      "  --seed=N         master seed (default 1)\n"
      "  --split-layer=N  FEOL/BEOL cut after metal N, 1-9 (default 4)\n"
      "  --lift-layer=N   correction-cell pin layer, 1-10 (default M6/M8)\n"
      "  --patterns=N     simulation patterns for OER/HD (default 100000)\n"
      "  --target-oer=F   randomization stop threshold (default 0.995)\n"
      "  --buffering      enable post-placement drive-strength fixing\n"
      "  --route-passes=N router rip-up-and-reroute passes (default 3)\n"
      "  --detailed-passes=N  placer refinement sweeps (default M6 2, M8 1)\n",
      to);
  return to == stderr ? 2 : 0;
}

void print_netlist_line(const char* bench, const netlist::Netlist& nl) {
  std::printf("%s-like netlist: %zu gates, %zu nets, %zu PIs, %zu POs\n",
              bench, nl.num_gates(), nl.num_nets(),
              nl.primary_inputs().size(), nl.primary_outputs().size());
}

void print_protect_summary(const core::ProtectedDesign& design) {
  std::printf(
      "protected: %zu swaps, erroneous-netlist OER %.1f%% / HD %.1f%%, "
      "restoration %s\n",
      design.ledger.entries.size(), 100 * design.oer, 100 * design.hd,
      design.restored_ok ? "EQUIVALENT to original" : "FAILED");
  std::printf("PPA: power %.1f uW, critical path %.0f ps, die %.0f um^2, "
              "wirelength %.0f um\n",
              design.layout.ppa.total_power_uw(),
              design.layout.ppa.critical_path_ps, design.layout.ppa.die_area_um2,
              design.layout.ppa.wirelength_um);
}

/// Output path for `--out-X=FILE`. A bare `--out-X` parses as the flag
/// value "true" (util::Args flag syntax); route that to stdout rather than
/// creating a file literally named "true".
std::string out_path(const util::Args& args, const std::string& key) {
  const std::string v = args.get(key, "-");
  return v == "true" ? "-" : v;
}

/// A CCR or an error rate of `res` as printed. CCR is "n/a" when the split
/// left no open sink, where ProximityResult::ccr() reads 1.0 by convention;
/// OER and HD are "n/a" when no pattern ran, as for a cyclic recovered
/// netlist, where the attack reports the sentinel 1.0 and 0.5.
std::string ccr_pct(const attack::ProximityResult& res, double ccr) {
  return util::Table::pct_or_na(res.open_sinks != 0, 100 * ccr);
}
std::string rate_pct(const attack::ProximityResult& res, double rate) {
  return util::Table::pct_or_na(res.rates.patterns != 0, 100 * rate);
}

attack::ProximityOptions attack_options(const util::Args& args,
                                        const FlowSetup& setup) {
  attack::ProximityOptions a;
  a.eval_patterns = setup.patterns;
  a.seed = setup.seed;
  a.use_direction = !args.has("no-direction");
  a.use_load = !args.has("no-load");
  a.use_loops = !args.has("no-loops");
  a.use_strength_prior = args.get_bool("strength-prior", false);
  // 0 keeps every driver as a candidate (all-pairs matching).
  a.candidates_per_sink = static_cast<int>(std::min<std::size_t>(
      args.get_count("candidates", a.candidates_per_sink), INT_MAX));
  return a;
}

int cmd_protect(const util::Args& args, const FlowSetup& setup) {
  netlist::CellLibrary lib{setup.flow.lift_layer};
  const auto nl = make_netlist(lib, setup);
  print_netlist_line(setup.bench.c_str(), nl);
  const auto design = run_protect(nl, setup);
  print_protect_summary(design);

  if (args.has("out-verilog") &&
      !write_output(out_path(args, "out-verilog"),
                    netlist::to_verilog(design.erroneous)))
    return 1;
  if (args.has("out-def") &&
      !write_output(out_path(args, "out-def"),
                    core::to_def(design.erroneous, design.layout.placement,
                                 design.layout.routing, design.layout.tasks)))
    return 1;
  return design.restored_ok ? 0 : 1;
}

int cmd_split(const util::Args& args, const FlowSetup& setup) {
  netlist::CellLibrary lib{setup.flow.lift_layer};
  const auto nl = make_netlist(lib, setup);
  const bool unprotected = args.has("unprotected");

  std::optional<core::ProtectedDesign> design;
  std::optional<core::LayoutResult> original;
  if (unprotected)
    original = core::layout_original(nl, setup.flow);
  else
    design = run_protect(nl, setup);
  const netlist::Netlist* physical =
      unprotected ? &original->physical(nl) : &design->erroneous;
  const core::LayoutResult* layout =
      unprotected ? &*original : &design->layout;

  const auto view = run_split(*physical, *layout, setup);
  const auto drivers = view.open_driver_fragments();
  const auto sinks = view.open_sink_fragments();
  std::size_t open_pins = 0;
  for (const auto fi : sinks) open_pins += view.fragments[fi].sinks.size();
  std::printf("%s layout of %s, split after M%d:\n",
              unprotected ? "unprotected" : "protected", setup.bench.c_str(),
              setup.split_layer);
  std::printf("  %zu FEOL fragments, %zu vpins\n", view.fragments.size(),
              view.num_vpins());
  std::printf("  %zu open driver fragments, %zu open sink fragments "
              "(%zu hidden sink pins)\n",
              drivers.size(), sinks.size(), open_pins);

  if (args.has("out-def")) {
    std::ostringstream os;
    core::write_split_def(*physical, layout->placement, layout->routing,
                          layout->tasks, layout->num_net_tasks,
                          setup.split_layer, os);
    if (!write_output(out_path(args, "out-def"), os.str())) return 1;
  }
  return 0;
}

int cmd_attack(const util::Args& args, const FlowSetup& setup) {
  netlist::CellLibrary lib{setup.flow.lift_layer};
  const auto nl = make_netlist(lib, setup);
  const auto opts = attack_options(args, setup);

  if (args.has("unprotected")) {
    const auto original = core::layout_original(nl, setup.flow);
    const auto& sized = original.physical(nl);
    const auto view = run_split(sized, original, setup);
    const auto res = attack::proximity_attack(sized, sized,
                                              original.placement, view,
                                              nullptr, opts);
    std::printf("attack on unprotected %s (split M%d): CCR %s, "
                "OER %s, HD %s  (%zu/%zu sinks correct)\n",
                setup.bench.c_str(), setup.split_layer,
                ccr_pct(res, res.ccr()).c_str(),
                rate_pct(res, res.rates.oer).c_str(),
                rate_pct(res, res.rates.hd).c_str(), res.correct,
                res.open_sinks);
    return 0;
  }

  const auto design = run_protect(nl, setup);
  const auto view = run_split(design.erroneous, design.layout, setup);
  const auto res =
      attack::proximity_attack(design.erroneous, design.restored,
                               design.layout.placement, view, &design.ledger,
                               opts);
  std::printf("attack on protected %s (split M%d): CCR %s, "
              "CCR(randomized nets) %s, OER %s, HD %s\n",
              setup.bench.c_str(), setup.split_layer,
              ccr_pct(res, res.ccr()).c_str(),
              ccr_pct(res, res.ccr_protected()).c_str(),
              rate_pct(res, res.rates.oer).c_str(),
              rate_pct(res, res.rates.hd).c_str());
  return 0;
}

int cmd_report(const util::Args& args, const FlowSetup& setup) {
  netlist::CellLibrary lib{setup.flow.lift_layer};
  const auto nl = make_netlist(lib, setup);
  print_netlist_line(setup.bench.c_str(), nl);
  const auto opts = attack_options(args, setup);

  const auto original = core::layout_original(nl, setup.flow);
  const auto design = run_protect(nl, setup);

  const auto& sized = original.physical(nl);
  const auto v0 = run_split(sized, original, setup);
  const auto r0 = attack::proximity_attack(sized, sized, original.placement,
                                           v0, nullptr, opts);
  const auto vp = run_split(design.erroneous, design.layout, setup);
  const auto rp =
      attack::proximity_attack(design.erroneous, design.restored,
                               design.layout.placement, vp, &design.ledger,
                               opts);

  std::printf("protection: %zu swaps, restoration %s\n",
              design.ledger.entries.size(),
              design.restored_ok ? "EQUIVALENT" : "FAILED");
  util::Table table({"Layout", "CCR", "OER", "HD", "Power uW", "Delay ps",
                     "Wirelength um"});
  table.add_row({"original", ccr_pct(r0, r0.ccr()),
                 rate_pct(r0, r0.rates.oer), rate_pct(r0, r0.rates.hd),
                 util::Table::num(original.ppa.total_power_uw(), 1),
                 util::Table::num(original.ppa.critical_path_ps, 0),
                 util::Table::num(original.ppa.wirelength_um, 0)});
  table.add_row({"proposed", ccr_pct(rp, rp.ccr_protected()),
                 rate_pct(rp, rp.rates.oer), rate_pct(rp, rp.rates.hd),
                 util::Table::num(design.layout.ppa.total_power_uw(), 1),
                 util::Table::num(design.layout.ppa.critical_path_ps, 0),
                 util::Table::num(design.layout.ppa.wirelength_um, 0)});
  std::fputs(table.render().c_str(), stdout);
  return design.restored_ok ? 0 : 1;
}

/// Grid parsing shared by `sweep`, `materialize` and `serve` — they must
/// expand identical cells (and therefore identical config hashes) for the
/// same flags, or a materialize could never find what a sweep stored.
/// `extra` lists the command's own flags; any flag outside the grid flags,
/// --quick, --patterns and `extra` throws std::invalid_argument.
sweep::Grid grid_from_args(const util::Args& args, bool quick,
                           std::initializer_list<const char*> extra) {
  // Same validated parsing as the --grid spec (sweep::Grid::set), so
  // malformed values fail loudly instead of being silently truncated. The
  // singular forms every other subcommand takes (--bench/--seed/
  // --split-layer) alias their plural grid dimension — muscle memory from
  // `sm_flow attack` must not be silently dropped.
  const std::pair<const char*, const char*> kGridFlags[] = {
      {"benchmarks", "benchmarks"}, {"bench", "benchmarks"},
      {"seeds", "seeds"},           {"seed", "seeds"},
      {"splits", "splits"},         {"split-layer", "splits"},
      {"defenses", "defenses"},     {"attackers", "attackers"},
      {"attacker", "attackers"},
  };
  std::vector<std::string> known{"grid", "scale", "quick", "patterns"};
  for (const auto& [flag, key] : kGridFlags) known.push_back(flag);
  known.insert(known.end(), extra.begin(), extra.end());
  args.reject_unknown(known);

  sweep::Grid grid =
      args.has("grid") ? sweep::Grid::parse(args.get("grid", "")) : sweep::Grid{};
  for (const auto& [flag, key] : kGridFlags)
    if (args.has(flag)) grid.set(key, args.get(flag, ""));
  if (args.has("scale")) grid.set("scale", args.get("scale", ""));

  if (grid.benchmarks.empty())
    grid.benchmarks = quick ? std::vector<std::string>{"c432", "c880"}
                            : workloads::iscas85_names();
  if (quick && !args.has("grid") && !args.has("splits") &&
      !args.has("split-layer"))
    grid.split_layers = {4};
  return grid;
}

void print_result_tables(const util::Args& args, const sweep::Result& result) {
  if (!args.has("summary-only"))
    std::fputs(result.table().render().c_str(), stdout);
  std::printf("\nmean over seeds and split layers (cells with no open sink "
              "left out):\n");
  std::fputs(result.summary().render().c_str(), stdout);
}

int export_result(const util::Args& args, const sweep::Result& result) {
  if (args.has("csv") &&
      !write_output(out_path(args, "csv"), result.to_csv()))
    return 1;
  if (args.has("json") &&
      !write_output(out_path(args, "json"), result.to_json()))
    return 1;
  return 0;
}

/// sm_flow sweep: expand the grid from --grid/--benchmarks/--seeds/--splits/
/// --defenses (individual flags override the --grid spec), run it over
/// --jobs threads, print the per-cell and summary tables, and export CSV/
/// JSON on request. --quick clips the default grid for smoke runs.
/// --store/--resume bring in the event-sourced result log
/// (sweep/store.hpp); --dry-run prints the expanded cell list (with config
/// hashes) and exits without computing anything.
int cmd_sweep(const util::Args& args) {
  const bool quick = args.get_bool("quick", false);
  const sweep::Grid grid =
      grid_from_args(args, quick,
                     {"jobs", "store", "resume", "dry-run", "summary-only",
                      "csv", "json"});

  sweep::Options opts;
  opts.jobs = args.get_count("jobs", 1);
  opts.patterns = parse_patterns(args, quick ? 2000 : 100000);
  opts.store_path = args.has("store") ? args.get("store", "") : "";
  opts.resume = args.get_bool("resume", false);
  if (opts.resume && opts.store_path.empty())
    throw std::invalid_argument("sweep: --resume requires --store=FILE");

  if (args.get_bool("dry-run", false)) {
    // Planning / store debugging view: every cell the flags expand to and
    // its config hash (the store key).
    const auto cells = sweep::expand_cells(grid, opts);
    std::printf("sweep dry run: %zu cells (%zu benchmarks x %zu seeds x "
                "%zu splits x %zu defenses x %zu attackers)\n",
                cells.size(), grid.benchmarks.size(), grid.seeds.size(),
                grid.split_layers.size(), grid.defenses.size(),
                grid.attackers.size());
    for (const auto& cell : cells)
      std::printf("  %s\n", sweep::describe(cell).c_str());
    return 0;
  }

  std::printf("sweep: %zu cells (%zu benchmarks x %zu seeds x %zu splits x "
              "%zu defenses x %zu attackers), --jobs=%zu",
              grid.combinations(), grid.benchmarks.size(), grid.seeds.size(),
              grid.split_layers.size(), grid.defenses.size(),
              grid.attackers.size(), opts.jobs);
  if (!opts.store_path.empty())
    std::printf(", store %s%s", opts.store_path.c_str(),
                opts.resume ? " (resume)" : "");
  std::printf("\n");

  const auto result = sweep::run(grid, opts);
  print_result_tables(args, result);
  std::printf("\nsweep wall time: %.0f ms (%zu cells, %zu worker threads)\n",
              result.wall_ms, result.rows.size(), result.jobs);
  if (!opts.store_path.empty()) {
    std::printf("store: %zu cells computed and appended, %zu resumed from "
                "%s\n",
                result.computed_cells, result.resumed_cells,
                opts.store_path.c_str());
    if (result.quarantined_cells)
      std::printf("store: %zu quarantined cells skipped (failed records)\n",
                  result.quarantined_cells);
  }
  return export_result(args, result);
}

/// sm_flow materialize: rebuild the sweep tables for a grid purely from
/// store logs — the query side of the event-sourced store. Accepts several
/// comma-separated logs (say, of sub-grids run on different hosts) and
/// merges them last-wins. Exit codes tell scripts "incomplete" from
/// "degraded" apart: 1 when any cell has no record at all (run more
/// sweeps), 2 when the only absences are quarantined cells (every attempt
/// at them died — rerunning won't help without a fix). Both listings land
/// on stderr, sorted by config hash.
int cmd_materialize(const util::Args& args) {
  if (!args.has("store"))
    throw std::invalid_argument("materialize: --store=FILE[,FILE...] is "
                                "required");
  const auto paths = util::split_list(args.get("store", ""));
  if (paths.empty())
    throw std::invalid_argument("materialize: --store lists no files");

  const bool quick = args.get_bool("quick", false);
  const sweep::Grid grid =
      grid_from_args(args, quick, {"store", "summary-only", "csv", "json"});
  sweep::Options opts;
  opts.patterns = parse_patterns(args, quick ? 2000 : 100000);

  const auto store = sweep::load_store(paths, /*must_exist=*/true);
  std::printf("materialize: %zu records from %zu log(s) (%zu lines, "
              "%zu skipped, %zu superseded duplicates)\n",
              store.records.size(), paths.size(), store.lines, store.skipped,
              store.duplicates);

  const auto mat = sweep::materialize(grid, opts, store);
  print_result_tables(args, mat.result);
  std::printf("\nmaterialized %zu/%zu grid cells from the store\n",
              mat.result.rows.size(), grid.combinations());
  if (const int rc = export_result(args, mat.result); rc != 0) return rc;
  // The degradation report (stderr, cells sorted by config hash so the
  // order of the grid flags never changes the bytes — CI diffs this).
  // Skipped lines are labelled too, torn and rejected apart: a torn line
  // is normal after a crashed run (the cell a tear would have held was
  // never acknowledged) but worth eyes; a rejected one is a whole line
  // that is no valid record, so something foreign or corrupted wrote it.
  if (const std::size_t torn = store.skipped - store.rejected; torn > 0)
    std::fprintf(stderr,
                 "materialize: %zu torn line(s) skipped (unacknowledged "
                 "crash tails)\n",
                 torn);
  if (store.rejected > 0)
    std::fprintf(stderr,
                 "materialize: %zu rejected line(s) skipped (whole JSON "
                 "that fails a record check: foreign or corrupted "
                 "records)\n",
                 store.rejected);
  if (!mat.quarantined.empty()) {
    std::fprintf(stderr,
                 "materialize: %zu cells quarantined (workers died "
                 "repeatedly; no metrics):\n",
                 mat.quarantined.size());
    for (const auto& cell : mat.quarantined)
      std::fprintf(stderr, "  %s\n", sweep::describe(cell).c_str());
  }
  if (!mat.missing.empty()) {
    std::fprintf(stderr, "materialize: %zu cells missing from the store:\n",
                 mat.missing.size());
    for (const auto& cell : mat.missing)
      std::fprintf(stderr, "  %s\n", sweep::describe(cell).c_str());
    return 1;  // incomplete: cells with no record at all
  }
  return mat.quarantined.empty() ? 0 : 2;  // 2 = complete but degraded
}

/// sm_flow serve: the fault-tolerant supervisor (sweep/supervisor.hpp).
/// Expands the grid, diffs it against the store log, and dispatches the
/// missing cells to child `sm_flow sweep --resume` workers — re-exec'ing
/// this very binary — with a per-cell watchdog, retry/backoff, and
/// poison-cell quarantine. Exits 0 when the grid converged complete, 2
/// when it converged degraded (cells quarantined).
int cmd_serve(const util::Args& args) {
  const bool quick = args.get_bool("quick", false);
  const sweep::Grid grid =
      grid_from_args(args, quick,
                     {"store", "workers", "cell-timeout", "max-retries",
                      "backoff-base", "verbose"});

  sweep::ServeOptions sopts;
  sopts.sweep.patterns = parse_patterns(args, quick ? 2000 : 100000);
  sopts.sweep.store_path = args.has("store") ? args.get("store", "") : "";
  if (sopts.sweep.store_path.empty())
    throw std::invalid_argument("serve: --store=FILE is required");
  sopts.workers = args.get_count("workers", 1);
  sopts.cell_timeout_s = args.get_double("cell-timeout", 300.0);
  sopts.max_retries = args.get_count("max-retries", 3);
  sopts.backoff_base_ms = args.get_double("backoff-base", 100.0);
  if (args.get_bool("verbose", false))
    sopts.log = [](const std::string& msg) {
      std::printf("serve: %s\n", msg.c_str());
    };

  std::printf("serve: %zu cells (%zu benchmarks x %zu seeds x %zu splits x "
              "%zu defenses x %zu attackers), --workers=%zu, "
              "--cell-timeout=%.0fs, --max-retries=%zu, store %s\n",
              grid.combinations(), grid.benchmarks.size(), grid.seeds.size(),
              grid.split_layers.size(), grid.defenses.size(),
              grid.attackers.size(), sopts.workers, sopts.cell_timeout_s,
              sopts.max_retries, sopts.sweep.store_path.c_str());

  const auto report = sweep::serve(grid, sopts);
  std::printf("serve: converged in %.0f ms — %zu cells (%zu already stored, "
              "%zu computed, %zu quarantined now, %zu quarantined before), "
              "%zu workers spawned, %zu deaths (%zu watchdog kills)\n",
              report.wall_ms, report.total_cells, report.already_stored,
              report.computed, report.quarantined, report.pre_quarantined,
              report.workers_spawned, report.worker_deaths,
              report.watchdog_kills);
  if (report.degraded())
    std::fprintf(stderr,
                 "serve: DEGRADED — %zu cells quarantined; `sm_flow "
                 "materialize` lists them (exit 2)\n",
                 report.pre_quarantined + report.quarantined);
  return report.degraded() ? 2 : 0;
}

int cmd_list() {
  std::printf("ISCAS-85 profiles:\n ");
  for (const auto& n : workloads::iscas85_names()) std::printf(" %s", n.c_str());
  std::printf("\nsuperblue profiles (use with --scale):\n ");
  for (const auto& n : workloads::superblue_names())
    std::printf(" %s", n.c_str());
  std::printf("\nsynthetic scaling ladder (use with --scale):\n ");
  for (const auto& n : workloads::synthetic_names())
    std::printf(" %s", n.c_str());
  std::printf("\n");
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage(stderr);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(stdout);
  if (cmd == "list") return cmd_list();

  const util::Args args(argc - 1, argv + 1);
  // sweep/materialize/serve carry their own grid of benchmarks/seeds/
  // splits; the single-run FlowSetup does not apply.
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "materialize") return cmd_materialize(args);
  if (cmd == "serve") return cmd_serve(args);
  // Each single-run command's own flags; attack_options reads the hint
  // toggles and --candidates.
  if (cmd == "protect")
    return cmd_protect(args, parse_setup(args, {"out-verilog", "out-def"}));
  if (cmd == "split")
    return cmd_split(args, parse_setup(args, {"out-def", "unprotected"}));
  if (cmd == "attack")
    return cmd_attack(
        args, parse_setup(args, {"unprotected", "no-direction", "no-load",
                                 "no-loops", "strength-prior", "candidates"}));
  if (cmd == "report")
    return cmd_report(
        args, parse_setup(args, {"no-direction", "no-load", "no-loops",
                                 "strength-prior", "candidates"}));
  std::fprintf(stderr, "sm_flow: unknown command '%s'\n", cmd.c_str());
  return usage(stderr);
}

}  // namespace
}  // namespace sm::cli

int main(int argc, char** argv) {
  try {
    return sm::cli::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sm_flow: %s\n", e.what());
    return 1;
  }
}
