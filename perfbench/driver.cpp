// Repository benchmark driver: measures libsm from outside, through its
// public API only.
//
//   sm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--commit SHA] [--trace-out FILE]
//
// The workload seed N picks the run's generator seeds (grid_seeds), so one
// seed always gives the same inputs. Each sweep::run call covers the
// workload's grid for one generator seed.
//
// --trace 0 (end to end, tracing off): calls sweep::run once per generator
// seed, in whole passes over the seeds while the next pass should end
// within S seconds. Before each call it builds the CellLibrary and
// generates the run's netlists a few times (the set-up). Reports the median
// wall and CPU time of one call, the fastest set-up and the peak RSS of the
// process.
//
// --trace 1 (per layer): the same untraced calls, one per generator seed,
// then the same cells serially through the layer functions, in the order
// run_task in src/sweep/sweep.cpp calls them. Each call is a timed span;
// work counts are read from the structs the calls return. The traced rows
// must equal the untraced ones exactly (the correctness gate). S is not
// used.
//
// Both modes print the rows without their wall times plus a digest of them,
// so a behaviour change is visible. The last line of stdout is one JSON
// object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error or a non-Release build.
#include "attack/proximity.hpp"
#include "core/pipeline.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "netlist/cell_library.hpp"
#include "sweep/sweep.hpp"
#include "util/config_hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/generator.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace sm;
using sweep::Defense;

/// Simulation patterns of every OER/HD evaluation.
constexpr std::size_t kPatterns = 20000;

/// One workload: the sweep grid of one generator seed (proximity attacker)
/// and the worker count it runs at. One design's cost varies by 10-30%
/// between generator seeds, and the shared host adds slow bursts of up to
/// 40%, so a run calls sweep::run once for each of `seeds` generator seeds
/// and reports the median call: input and noise both average out.
struct Workload {
  std::string name;
  sweep::Workload kind;
  std::vector<std::string> benchmarks;
  double scale;
  std::vector<int> splits;
  std::vector<Defense> defenses;
  std::size_t seeds;
  std::size_t jobs;
};

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> w = {
      {"iscas_grid", sweep::Workload::Iscas85, workloads::iscas85_names(),
       0.02, {3, 4, 5}, {Defense::Unprotected, Defense::Proposed}, 4, 2},
      {"superblue_cell", sweep::Workload::Superblue, {"superblue5"}, 0.01,
       {3}, {Defense::Unprotected}, 12, 1},
      {"superblue_protect", sweep::Workload::Superblue, {"superblue5"}, 0.01,
       {4}, {Defense::Proposed}, 7, 1},
  };
  return w;
}

/// Generator seeds of workload seed `seed`: k*seed + 1 .. k*seed + k, so
/// distinct workload seeds never share an input.
std::vector<std::uint64_t> grid_seeds(const Workload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> s;
  for (std::size_t i = 1; i <= w.seeds; ++i) s.push_back(w.seeds * seed + i);
  return s;
}

/// The grid of one sweep::run call: generator seed `gen_seed` only.
sweep::Grid make_grid(const Workload& w, std::uint64_t gen_seed) {
  sweep::Grid g;
  g.benchmarks = w.benchmarks;
  g.seeds = {gen_seed};
  g.split_layers = w.splits;
  g.defenses = w.defenses;
  g.attackers = {sweep::Attacker::Proximity};
  g.scale = w.scale;
  return g;
}

workloads::GenSpec spec_of(const Workload& w, const std::string& bench) {
  return w.kind == sweep::Workload::Superblue
             ? workloads::superblue_profile(bench, w.scale)
             : workloads::iscas85_profile(bench);
}

/// Correction-pin layer of the cell library sweep::run uses for `w`.
int library_layer(const Workload& w) {
  return w.kind == sweep::Workload::Iscas85 ? 6 : 8;
}

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------- rows --

/// The deterministic part of a row — everything but its wall stamp — as
/// one JSON line. format_double round-trips, so equal text means equal
/// bits.
std::string row_text(const sweep::Row& r) {
  util::JsonWriter w;
  w.begin_object();
  w.key("benchmark").value(r.benchmark);
  w.key("seed").value(r.seed);
  w.key("split").value(r.split_layer);
  w.key("defense").value(sweep::to_string(r.defense));
  w.key("ccr").value(r.ccr);
  w.key("ccr_protected").value(r.ccr_protected);
  w.key("oer").value(r.oer);
  w.key("hd").value(r.hd);
  w.key("open_sinks").value(r.open_sinks);
  w.key("swaps").value(r.swaps);
  w.end_object();
  return w.str();
}

std::string rows_digest(const std::vector<sweep::Row>& rows) {
  std::string all;
  for (const auto& r : rows) all += row_text(r) + "\n";
  return util::config_hash(all);
}

void print_rows(const std::vector<sweep::Row>& rows) {
  for (const auto& r : rows) std::printf("row %s\n", row_text(r).c_str());
  std::printf("digest %s (%zu rows)\n", rows_digest(rows).c_str(), rows.size());
}

/// Structural checks on one sweep::run result: the rows come in grid-major
/// order (benchmark, seed, defense, split), every rate lies in [0, 1], and
/// every proposed cell is cut (its lifted nets sit above every split
/// layer). Returns the first problem, or "" when there is none.
std::string check_rows(const sweep::Result& res, const Workload& w,
                       std::uint64_t gen_seed) {
  if (res.rows.size() != make_grid(w, gen_seed).combinations())
    return "row count " + std::to_string(res.rows.size());
  std::size_t i = 0;
  for (const auto& b : w.benchmarks)
    for (const Defense d : w.defenses)
      for (const int split : w.splits) {
        const auto& r = res.rows[i++];
        const std::string at =
            "seed " + std::to_string(gen_seed) + " row " + std::to_string(i - 1) + ": ";
        if (r.benchmark != b || r.seed != gen_seed || r.defense != d ||
            r.split_layer != split)
          return at + "out of grid order";
        for (const double v : {r.ccr, r.ccr_protected, r.oer, r.hd})
          if (!(v >= 0.0 && v <= 1.0)) return at + "rate outside [0, 1]";
        if (d == Defense::Proposed && (r.open_sinks == 0 || r.swaps == 0))
          return at + "proposed cell without open sinks or swaps";
      }
  return "";
}

/// Mean CCR in percent over the `d` rows that have open sinks. A row
/// without open sinks reports CCR 1.0 by convention; it measures nothing
/// and is left out.
double mean_ccr_pct(const std::vector<sweep::Row>& rows, Defense d) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& r : rows)
    if (r.defense == d && r.open_sinks > 0) {
      sum += r.ccr;
      ++n;
    }
  return n ? 100.0 * sum / static_cast<double>(n) : 0.0;
}

// ------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  std::string trace_out;
};

void print_provenance(const Args& a, const Workload& w) {
  util::JsonWriter j;
  j.begin_object();
  j.key("workload").value(w.name);
  j.key("seed").value(a.seed);
  j.key("trace").value(a.trace);
  j.key("jobs").value(w.jobs);
  j.key("patterns").value(kPatterns);
  j.key("nproc").value(std::uint64_t{std::thread::hardware_concurrency()});
  j.key("compiler").value(SM_PERFBENCH_COMPILER);
  j.key("build_type").value(SM_PERFBENCH_BUILD_TYPE);
  j.key("commit").value(a.commit);
  j.end_object();
  std::printf("provenance %s\n", j.str().c_str());
}

/// Prints each metric on its own line, then the result object as the last
/// line of stdout. Returns the exit status.
int report(bool correct, std::size_t attempted, std::size_t failed,
           const std::vector<Metric>& metrics, const std::string& problem) {
  if (!problem.empty()) std::printf("CHECK FAILED: %s\n", problem.c_str());
  for (const auto& m : metrics)
    std::printf("metric %-32s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  util::JsonWriter j;
  j.begin_object();
  j.key("correct").value(correct);
  j.key("attempted").value(attempted);
  j.key("failed").value(failed);
  j.key("metrics").begin_object();
  for (const auto& m : metrics) {
    j.key(m.name).begin_object();
    j.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
    j.key("unit").value(m.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// --------------------------------------------------------- end to end --

/// One set-up: the workload's CellLibrary and its generated netlists — the
/// inputs sweep::run builds before its first task.
double setup_once(const Workload& w, std::uint64_t seed) {
  const auto t0 = Clock::now();
  const netlist::CellLibrary lib{library_layer(w)};
  std::size_t cells = 0;
  for (const auto& b : w.benchmarks)
    for (const std::uint64_t s : grid_seeds(w, seed))
      cells += workloads::generate(lib, spec_of(w, b), s).num_cells();
  const double elapsed = seconds_since(t0);
  if (cells == 0) throw std::runtime_error("set-up generated no cells");
  return elapsed;
}

/// The fastest of one batch of set-ups: at least 3, for at least 0.3 s.
/// One set-up takes 20-70 ms. The shared host slows set-ups by up to 2x,
/// for seconds to minutes at a time, and never speeds one up: over eight
/// superblue_protect runs, the median of a run's set-ups spread by 33%
/// (quartile distance over median), their minimum by 7%. So a run takes a
/// batch before every sweep::run call, spreading its samples over the run
/// as the calls are, and reports the fastest set-up of all.
double setup_batch_min(const Workload& w, std::uint64_t seed) {
  double best = setup_once(w, seed);
  const auto t0 = Clock::now();
  for (std::size_t n = 1; n < 3 || seconds_since(t0) < 0.3; ++n)
    best = std::min(best, setup_once(w, seed));
  return best;
}

/// One sweep::run call with its wall and process CPU time.
struct Call {
  sweep::Result res;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Calls sweep::run on the grid of `gen_seed`; throws what it throws.
Call timed_run(const Workload& w, std::uint64_t gen_seed) {
  sweep::Options opts;
  opts.jobs = w.jobs;
  opts.patterns = kPatterns;
  Call c;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  c.res = sweep::run(make_grid(w, gen_seed), opts);
  c.wall_s = seconds_since(t0);
  c.cpu_s = cpu_seconds() - c0;
  return c;
}

int run_untraced(const Workload& w, const Args& a) {
  const auto seeds = grid_seeds(w, a.seed);
  std::vector<double> walls, cpus, setups;
  std::vector<sweep::Row> rows;  // of the first pass, in seed order
  std::string problem;
  std::size_t attempted = 0, failed = 0;
  // Whole passes over the generator seeds, so every seed counts as often
  // in the medians: one pass, then more while the next should end within
  // the measured time.
  const auto loop0 = Clock::now();
  bool more = true;
  for (std::size_t pass = 0; more; ++pass) {
    const auto pass0 = Clock::now();
    for (const std::uint64_t seed : seeds) {
      setups.push_back(setup_batch_min(w, a.seed));
      Call c;
      try {
        c = timed_run(w, seed);
      } catch (const std::exception& e) {
        const std::size_t n = make_grid(w, seed).combinations();
        attempted += n;
        failed += n;
        problem = std::string("sweep::run threw: ") + e.what();
        more = false;
        break;
      }
      walls.push_back(c.wall_s);
      cpus.push_back(c.cpu_s);
      attempted += c.res.rows.size();
      if (problem.empty()) problem = check_rows(c.res, w, seed);
      if (pass == 0) rows.insert(rows.end(), c.res.rows.begin(), c.res.rows.end());
    }
    const double pass_s = seconds_since(pass0);
    more = more && seconds_since(loop0) + pass_s <= a.seconds;
  }
  const double rss = peak_rss_mb();

  print_rows(rows);
  std::printf("sweep calls %zu, wall_s each:", walls.size());
  for (const double t : walls) std::printf(" %.4f", t);
  std::printf("\nset-up batch minima:");
  for (const double t : setups) std::printf(" %.5f", t);
  std::printf("\n");
  const std::vector<Metric> metrics = {
      {"wall_s", median(walls), "s"},
      {"cpu_s", median(cpus), "s"},
      {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
      {"peak_rss_mb", rss, "MB"},
  };
  return report(problem.empty(), attempted, failed, metrics, problem);
}

// ----------------------------------------------------------- per layer --

/// Spans around the calls into each layer, kept in memory: summed busy time
/// per layer, and every span for the Chrome trace file.
class Tracer {
 public:
  template <class F>
  auto span(const std::string& layer, const std::string& task, F&& call) {
    const double t0 = now();
    auto out = call();
    const double t1 = now();
    spans_.push_back({layer, task, t0, t1});
    busy_[layer] += t1 - t0;
    return out;
  }

  double now() const { return seconds_since(origin_); }
  double busy(const std::string& layer) const {
    const auto it = busy_.find(layer);
    return it == busy_.end() ? 0.0 : it->second;
  }
  double busy_total() const {
    double s = 0.0;
    for (const auto& [layer, t] : busy_) s += t;
    return s;
  }

  /// Chrome trace-event JSON (loads in Perfetto or chrome://tracing).
  std::string chrome_json() const {
    util::JsonWriter j;
    j.begin_object();
    j.key("traceEvents").begin_array();
    for (const auto& s : spans_) {
      j.begin_object();
      j.key("name").value(s.layer);
      j.key("cat").value("layer");
      j.key("ph").value("X");
      j.key("pid").value(1);
      j.key("tid").value(1);
      j.key("ts").value(1e6 * s.t0);
      j.key("dur").value(1e6 * (s.t1 - s.t0));
      j.key("args").begin_object();
      j.key("task").value(s.task);
      j.end_object();
      j.end_object();
    }
    j.end_array();
    j.end_object();
    return j.str();
  }

 private:
  struct Span {
    std::string layer, task;
    double t0, t1;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string, double> busy_;
};

/// Per-layer metric names and units, in report order. Counters start at 0,
/// so a layer a workload never calls reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"route.busy_s", "s"},          {"route.share_pct", "%"},
      {"route.nets", "count"},        {"route.wire_mm", "mm"},
      {"route.vias", "count"},        {"route.failed_nets", "count"},
      {"route.overflow_gcells", "count"},
      {"protect.busy_s", "s"},        {"protect.share_pct", "%"},
      {"protect.swaps", "count"},     {"protect.correction_cells", "count"},
      {"protect.beol_wires", "count"}, {"protect.wire_mm", "mm"},
      {"protect.vias", "count"},      {"protect.failed_nets", "count"},
      {"protect.overflow_gcells", "count"},
      {"protect.restore_failures", "count"},
      {"attack.busy_s", "s"},         {"attack.share_pct", "%"},
      {"attack.open_sinks", "count"}, {"attack.matched_ratio", "ratio"},
      {"attack.ms_per_sink", "ms"},   {"attack.vacuous_cells", "count"},
      {"place.busy_s", "s"},          {"place.cells", "count"},
      {"split.busy_s", "s"},          {"split.vpins", "count"},
      {"split.open_sink_fragments", "count"},
      {"workloads.generate_s", "s"},
      {"sweep.cells", "count"},       {"sweep.cache_builds", "count"},
      {"sweep.cache_hits", "count"},  {"sweep.task_max_s", "s"},
      {"sweep.parallel_eff", "ratio"},
      {"trace.overhead_pct", "%"},    {"trace.uncovered_s", "s"},
      {"quality.ccr_unprotected_pct", "%"},
      {"quality.ccr_proposed_pct", "%"},
      {"quality.ppa_overhead_pct", "%"},
      {"quality.fail_ratio", "ratio"},
  };
  return m;
}

/// Adds a layout's routing counters under `layer` ("route" or "protect").
void add_routing(std::map<std::string, double>& m, const std::string& layer,
                 const route::RoutingStats& s) {
  m[layer + ".wire_mm"] += s.total_wire_um() / 1000.0;
  m[layer + ".vias"] += static_cast<double>(s.total_vias());
  m[layer + ".failed_nets"] += static_cast<double>(s.failed_nets);
  m[layer + ".overflow_gcells"] += static_cast<double>(s.overflowed_gcells);
}

int run_traced(const Workload& w, const Args& a) {
  const auto seeds = grid_seeds(w, a.seed);
  std::string problem;
  const auto fail = [&](const std::string& what) {
    if (problem.empty()) problem = what;
  };

  // The untraced reference: one sweep::run call per generator seed, as in
  // --trace 0. Rows concatenate in seed order.
  std::vector<sweep::Row> ref;
  double ref_wall = 0.0, ref_cpu = 0.0, task_max_ms = 0.0;
  std::size_t cache_builds = 0, cache_hits = 0, jobs = 1, router_jobs = 1;
  for (const std::uint64_t seed : seeds) {
    Call c;
    try {
      c = timed_run(w, seed);
    } catch (const std::exception& e) {
      fail(std::string("sweep::run threw: ") + e.what());
      break;  // `ref` stays a prefix of the traced cells
    }
    fail(check_rows(c.res, w, seed));
    ref_wall += c.wall_s;
    ref_cpu += c.cpu_s;
    ref.insert(ref.end(), c.res.rows.begin(), c.res.rows.end());
    for (const auto& r : c.res.rows) task_max_ms = std::max(task_max_ms, r.wall_ms);
    const auto& cs = c.res.cache_stats;
    cache_builds += cs.netlists + cs.placements + cs.base_routes;
    cache_hits += cs.hits;
    jobs = c.res.jobs;
    router_jobs = c.res.router_jobs;
  }
  const std::size_t cells = seeds.size() * make_grid(w, 0).combinations();

  std::map<std::string, double> m;
  for (const auto& [name, unit] : layer_metrics()) m[name] = 0.0;
  std::vector<char> cell_failed(cells, 0);

  // The traced pass: the same cells, serially, through the layer functions
  // in run_task's order. The library outlives every netlist (netlists keep
  // a pointer to it), as in sweep::run.
  Tracer tr;
  const netlist::CellLibrary lib{library_layer(w)};
  double ppa_sum = 0.0;
  std::size_t ppa_n = 0, matched = 0, open_sinks = 0, row = 0;
  std::vector<std::pair<std::string, std::uint64_t>> tasks;  // row order
  for (const std::uint64_t seed : seeds)
    for (const auto& bench : w.benchmarks) tasks.emplace_back(bench, seed);
  const double traced0 = tr.now();
  for (const auto& t : tasks) {
    const std::string& bench = t.first;
    const std::uint64_t seed = t.second;
    const std::string task = bench + "/" + std::to_string(seed);
    const std::size_t task_row = row;
    try {
      const auto nl = tr.span("workloads.generate", task, [&] {
        return workloads::generate(lib, spec_of(w, bench), seed);
      });
      auto flow = sweep::task_flow(bench, w.kind, seed, w.scale);
      flow.router.jobs = router_jobs;
      std::optional<core::LayoutResult> base;
      for (const Defense d : w.defenses) {
        const netlist::Netlist* feol = &nl;
        const core::LayoutResult* layout = nullptr;
        const core::SwapLedger* ledger = nullptr;
        std::optional<core::ProtectedDesign> design;
        bool layout_failed = false;
        if (d == Defense::Unprotected) {
          // LayoutCache::base_layout: place, then route a copy of the
          // cached placement.
          const auto placed = tr.span(
              "place", task, [&] { return core::place_design(nl, flow); });
          m["place.cells"] += static_cast<double>(nl.num_cells());
          base = tr.span("route", task, [&] {
            return core::route_design(nl, placed, flow);
          });
          feol = &base->physical(nl);
          layout = &*base;
          m["route.nets"] += static_cast<double>(base->num_net_tasks);
          add_routing(m, "route", base->routing.stats);
          layout_failed = base->routing.stats.failed_nets > 0;
        } else if (d == Defense::Proposed) {
          design = tr.span("protect", task, [&] {
            return core::protect(nl, sweep::task_randomize(seed), flow);
          });
          feol = &design->erroneous;
          layout = &design->layout;
          ledger = &design->ledger;
          m["protect.swaps"] += static_cast<double>(design->ledger.entries.size());
          m["protect.correction_cells"] +=
              static_cast<double>(design->plan.cells.size());
          m["protect.beol_wires"] += static_cast<double>(design->plan.wires.size());
          add_routing(m, "protect", design->layout.routing.stats);
          if (!design->restored_ok) m["protect.restore_failures"] += 1.0;
          layout_failed = design->layout.routing.stats.failed_nets > 0 ||
                          !design->restored_ok;
          if (base) {
            const auto& p0 = base->ppa;
            const auto& p1 = design->layout.ppa;
            ppa_sum += std::max(
                util::pct_delta(p0.total_power_uw(), p1.total_power_uw()),
                util::pct_delta(p0.critical_path_ps, p1.critical_path_ps));
            ++ppa_n;
          }
        } else {
          throw std::logic_error("workload defense not traced");
        }

        for (const int split : w.splits) {
          const auto view = tr.span("split", task, [&] {
            return core::split_layout(*feol, layout->placement,
                                      layout->routing, layout->tasks,
                                      layout->num_net_tasks, split);
          });
          m["split.vpins"] += static_cast<double>(view.num_vpins());
          m["split.open_sink_fragments"] +=
              static_cast<double>(view.open_sink_fragments().size());

          attack::ProximityOptions aopts;
          aopts.eval_patterns = kPatterns;
          aopts.seed = util::task_seed(seed, static_cast<std::uint64_t>(split));
          const auto res = tr.span("attack", task, [&] {
            return attack::proximity_attack(*feol, nl, layout->placement,
                                            view, ledger, aopts);
          });
          open_sinks += res.open_sinks;
          if (res.open_sinks > 0) {
            matched += res.matched;
          } else {
            m["attack.vacuous_cells"] += 1.0;
          }

          // The correctness gate: the traced cell equals the sweep row.
          const std::size_t i = row++;
          if (layout_failed) cell_failed[i] = 1;
          if (i >= ref.size()) continue;  // the sweep threw
          const auto& r = ref[i];
          if (r.ccr != res.ccr() || r.ccr_protected != res.ccr_protected() ||
              r.oer != res.rates.oer || r.hd != res.rates.hd ||
              r.open_sinks != res.open_sinks)
            fail("traced cell differs from sweep row " + std::to_string(i) +
                 " (" + task + " M" + std::to_string(split) + " " +
                 sweep::to_string(d) + ")");
        }
      }
    } catch (const std::exception& e) {
      fail("traced " + task + " threw: " + e.what());
      row = task_row + w.defenses.size() * w.splits.size();
      for (std::size_t i = task_row; i < row; ++i) cell_failed[i] = 1;
    }
  }
  const double traced_wall = tr.now() - traced0;

  const double busy_total = tr.busy_total();
  for (const std::string layer : {"route", "protect", "attack"}) {
    m[layer + ".busy_s"] = tr.busy(layer);
    m[layer + ".share_pct"] = 100.0 * ratio(tr.busy(layer), traced_wall);
  }
  m["place.busy_s"] = tr.busy("place");
  m["split.busy_s"] = tr.busy("split");
  m["workloads.generate_s"] = tr.busy("workloads.generate");
  m["attack.open_sinks"] = static_cast<double>(open_sinks);
  m["attack.matched_ratio"] =
      ratio(static_cast<double>(matched), static_cast<double>(open_sinks));
  m["attack.ms_per_sink"] =
      ratio(1000.0 * tr.busy("attack"), static_cast<double>(open_sinks));

  m["sweep.cells"] = static_cast<double>(ref.size());
  m["sweep.cache_builds"] = static_cast<double>(cache_builds);
  m["sweep.cache_hits"] = static_cast<double>(cache_hits);
  m["sweep.task_max_s"] = task_max_ms / 1000.0;
  m["sweep.parallel_eff"] =
      ratio(ref_cpu, ref_wall * static_cast<double>(jobs));
  m["trace.overhead_pct"] = 100.0 * (ratio(traced_wall, ref_cpu) - 1.0);
  m["trace.uncovered_s"] = traced_wall - busy_total;

  const std::size_t failed = static_cast<std::size_t>(
      std::count(cell_failed.begin(), cell_failed.end(), 1));
  m["quality.ccr_unprotected_pct"] = mean_ccr_pct(ref, Defense::Unprotected);
  m["quality.ccr_proposed_pct"] = mean_ccr_pct(ref, Defense::Proposed);
  m["quality.ppa_overhead_pct"] = ratio(ppa_sum, static_cast<double>(ppa_n));
  m["quality.fail_ratio"] =
      ratio(static_cast<double>(failed), static_cast<double>(cells));
  if (failed > 0 && problem.empty())
    fail(std::to_string(failed) + " cell(s) with failed nets or a failed restore");

  if (!a.trace_out.empty()) {
    std::ofstream out(a.trace_out);
    out << tr.chrome_json() << "\n";
    if (!out) std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
  }

  print_rows(ref);
  std::printf("untraced sweep::run: wall %.4f s, cpu %.4f s; traced pass: "
              "wall %.4f s\n", ref_wall, ref_cpu, traced_wall);
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_metrics())
    metrics.push_back({name, m[name], unit});
  return report(problem.empty(), cells, failed, metrics, problem);
}

// ---------------------------------------------------------------- main --

int usage(const std::string& why) {
  std::fprintf(stderr,
               "sm_perfbench: %s\n"
               "usage: sm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--trace-out FILE]\n"
               "workloads:",
               why.c_str());
  for (const auto& w : all_workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  constexpr bool asserts_on = false;
#else
  constexpr bool asserts_on = true;
#endif
  if (std::string(SM_PERFBENCH_BUILD_TYPE) != "Release" || asserts_on) {
    std::fprintf(stderr,
                 "sm_perfbench: refusing to measure a %s build (need "
                 "Release)\n",
                 SM_PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Args a;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string key = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + key);
      const std::string value = argv[i + 1];
      std::size_t used = 0;
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        if (value.empty() || value[0] == '-') return usage("bad --seed");
        a.seed = std::stoull(value, &used);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value, &used);
        if (!(a.seconds > 0)) return usage("bad --seconds");
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("bad --trace");
        a.trace = value == "1";
      } else if (key == "--commit") {
        a.commit = value;
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        return usage("unknown option " + key);
      }
      if (used != 0 && used != value.size()) return usage("bad " + key);
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }

  const auto& ws = all_workloads();
  const auto it = std::find_if(ws.begin(), ws.end(), [&](const Workload& w) {
    return w.name == a.workload;
  });
  if (it == ws.end()) return usage("unknown workload '" + a.workload + "'");

  print_provenance(a, *it);
  try {
    return a.trace ? run_traced(*it, a) : run_untraced(*it, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sm_perfbench: %s\n", e.what());
    return 1;
  }
}
