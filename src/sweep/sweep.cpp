#include "sweep/sweep.hpp"

#include "attack/crouting.hpp"
#include "attack/proximity.hpp"
#include "core/baselines.hpp"
#include "core/equivalence.hpp"
#include "core/pipeline.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "netlist/tech.hpp"
#include "netlist/topo.hpp"
#include "sweep/store.hpp"
#include "util/args.hpp"
#include "util/config_hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace sm::sweep {
namespace {

/// One (benchmark, seed, defense) work unit; split at every split layer and
/// attacked by every attacker of the grid. Tasks of one (benchmark, seed)
/// pair share a LayoutCache entry under `cache_key` — the generated netlist
/// always, the base placement for the placement-keeping baselines, the base
/// layout when the defense is Unprotected.
struct Task {
  std::string benchmark;
  std::uint64_t seed = 0;
  Defense defense = Defense::Unprotected;
  Workload workload = Workload::Iscas85;
  std::string cache_key;
};

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Fires once per cell this task actually computed, after the task's rows
/// (including the shared wall stamp) are final — the store appends here,
/// so a record only ever describes a completed, fully-written cell.
/// `cell_index` is the task-local index: li * attackers + ai, for split
/// layer li and attacker ai of the grid.
using CellCallback = std::function<void(std::size_t cell_index)>;

core::PerturbStrategy perturb_strategy(Defense d) {
  switch (d) {
    case Defense::GColor: return core::PerturbStrategy::GColor;
    case Defense::GType1: return core::PerturbStrategy::GType1;
    case Defense::GType2: return core::PerturbStrategy::GType2;
    default: return core::PerturbStrategy::Random;
  }
}

int verdict_code(core::EquivVerdict v) {
  switch (v) {
    case core::EquivVerdict::Equivalent: return 1;
    case core::EquivVerdict::Inequivalent: return 0;
    case core::EquivVerdict::Unknown: break;
  }
  return 2;
}

/// Run one task and fill the rows of its *computed* cells
/// (compute[ci] == 0 marks cells prefilled from the resume store — their
/// rows are left untouched and their attacks skipped). Everything written
/// to `rows` is a function of the task's grid coordinates and `opts`
/// alone — this is where the thread-count independence of the whole sweep
/// is decided, and why attacking only the missing subset of cells is
/// bit-identical to a from-scratch run: each cell's attack seeds from
/// (grid seed, split layer), never from which siblings ran beside it.
/// Cached stage products keep that property too: they are deterministic
/// in (benchmark, seed, options), so whether this task builds them or
/// reuses a sibling defense's build is invisible in the metrics.
void run_task(const Task& t, const Grid& grid, const Options& opts,
              const netlist::CellLibrary& lib,
              core::LayoutCache& cache, Row* rows,
              const std::vector<char>& compute, const CellCallback& on_cell) {
  const double t0 = now_ms();
  const auto& nl = cache.netlist(t.cache_key, [&] {
    return workloads::generate(
        lib, task_spec(t.benchmark, t.workload, grid.scale), t.seed);
  });
  const auto flow = task_flow(t.benchmark, t.workload, t.seed, grid.scale);

  const netlist::Netlist* feol = &nl;
  const core::LayoutResult* layout = nullptr;
  const core::SwapLedger* ledger = nullptr;

  std::optional<core::ProtectedDesign> design;
  std::optional<core::LayoutResult> local;     // baseline-defense layouts
  std::optional<core::SwappedLayout> swapped;  // pin-swap baseline
  std::size_t swaps = 0;
  const BaselineRecipe recipe = baseline_recipe(t.defense);
  switch (t.defense) {
    case Defense::Unprotected: {
      const auto& base = cache.base_layout(t.cache_key, nl, flow);
      feol = &base.physical(nl);
      layout = &base;
      break;
    }
    case Defense::Proposed: {
      design = core::protect(nl, task_randomize(t.seed), flow);
      feol = &design->erroneous;
      layout = &design->layout;
      ledger = &design->ledger;
      swaps = design->ledger.entries.size();
      break;
    }
    case Defense::PlacePerturb:
    case Defense::Random:
    case Defense::GColor:
    case Defense::GType1:
    case Defense::GType2: {
      // Perturbation starts from the shared base placement (it swaps
      // locations after placement — re-placing per defense would waste the
      // cache and change nothing).
      const auto& placed = cache.placed(t.cache_key, nl, flow);
      local = core::layout_placement_perturbed(
          nl, flow, placed, perturb_strategy(t.defense), recipe.fraction,
          t.seed, recipe.radius_frac);
      layout = &*local;
      break;
    }
    case Defense::PinSwap: {
      // The swap budget scales with instance size (the bench-harness rule);
      // the *rule* is what the config hash covers.
      const std::size_t n =
          std::max(recipe.min_swaps,
                   static_cast<std::size_t>(nl.num_nets()) /
                       recipe.swap_divisor);
      swapped = core::layout_pin_swapped(nl, flow, n, t.seed);
      feol = &swapped->erroneous;
      layout = &swapped->layout;
      ledger = &swapped->ledger;
      swaps = swapped->ledger.entries.size();
      break;
    }
    case Defense::RoutePerturb: {
      const auto& placed = cache.placed(t.cache_key, nl, flow);
      local = core::layout_routing_perturbed(nl, flow, placed, recipe.fraction,
                                             flow.lift_layer, t.seed);
      layout = &*local;
      break;
    }
    case Defense::RouteBlockage: {
      const auto& placed = cache.placed(t.cache_key, nl, flow);
      const double size = placed.placement.floorplan.die.width() /
                          static_cast<double>(recipe.width_divisor);
      local = core::layout_routing_blockage(nl, flow, placed, recipe.blockages,
                                            size, recipe.blockage_max_layer,
                                            t.seed);
      layout = &*local;
      break;
    }
  }

  const std::size_t n_att = grid.attackers.size();
  for (std::size_t li = 0; li < grid.split_layers.size(); ++li) {
    const std::size_t cell0 = li * n_att;
    bool any = compute.empty();
    for (std::size_t ai = 0; !any && ai < n_att; ++ai)
      any = compute[cell0 + ai] != 0;
    if (!any) continue;
    const int split = grid.split_layers[li];
    // One split view per layer, shared by every attacker of the cell — the
    // view is a pure function of (layout, split).
    const auto view =
        core::split_layout(*feol, layout->placement, layout->routing,
                           layout->tasks, layout->num_net_tasks, split);
    for (std::size_t ai = 0; ai < n_att; ++ai) {
      if (!compute.empty() && !compute[cell0 + ai]) continue;
      const Attacker attacker = grid.attackers[ai];
      Row& row = rows[cell0 + ai];
      row.benchmark = t.benchmark;
      row.seed = t.seed;
      row.split_layer = split;
      row.defense = t.defense;
      row.attacker = attacker;
      row.swaps = swaps;

      if (attacker == Attacker::CRouting) {
        // Fully deterministic (no RNG, no threads): candidate confinement
        // per vpin. The row reports the middle bounding box of the 15/30/45
        // ladder — the paper's headline E[LS]/match-in-list column.
        const auto res = attack::crouting_attack(view);
        row.open_sinks = res.num_vpins;
        if (!res.failed) {
          const std::size_t mid = res.candidate_list_size.size() / 2;
          row.ccr = res.match_in_list[mid];
          row.ccr_protected = res.match_in_list[mid];
          row.els = res.candidate_list_size[mid];
        }
        continue;  // oer/hd stay 0: crouting recovers nothing to simulate
      }

      attack::ProximityOptions aopts;
      aopts.eval_patterns = opts.patterns;
      // Attack randomness depends on (grid seed, split layer) only, never
      // on the worker thread — the sweep's determinism guarantee.
      aopts.seed = util::task_seed(t.seed, static_cast<std::uint64_t>(split));
      aopts.keep_recovered = attacker == Attacker::Sat;
      const auto res = attack::proximity_attack(*feol, nl, layout->placement,
                                                view, ledger, aopts);
      row.ccr = res.ccr();
      row.ccr_protected = res.ccr_protected();
      row.oer = res.rates.oer;
      row.hd = res.rates.hd;
      row.open_sinks = res.open_sinks;

      if (attacker == Attacker::Sat) {
        // Dis-correlation: equivalence-check the recovered netlist against
        // the original. Anything the checker cannot decide (cyclic
        // recovery, incomparable interfaces, SAT budget) reports Unknown —
        // never a crash mid-sweep.
        int code = 2;
        if (res.recovered && netlist::is_acyclic(*res.recovered)) {
          core::EquivOptions eopts;
          eopts.seed = aopts.seed;
          try {
            code = verdict_code(
                core::check_equivalence(nl, *res.recovered, eopts).verdict);
          } catch (const std::invalid_argument&) {
            code = 2;
          }
        }
        row.equiv = code;
      }
    }
  }
  // Task-granularity wall stamp (one timer per task: the cells share its
  // layout), then the completion callbacks — record append happens last so
  // the log never holds a cell whose row is still being written.
  const double wall = now_ms() - t0;
  const std::size_t n_cells = grid.split_layers.size() * n_att;
  for (std::size_t ci = 0; ci < n_cells; ++ci) {
    if (!compute.empty() && !compute[ci]) continue;
    rows[ci].wall_ms = wall;
    if (on_cell) on_cell(ci);
  }
}

}  // namespace

workloads::GenSpec task_spec(const std::string& benchmark, Workload workload,
                             double scale) {
  switch (workload) {
    case Workload::Superblue:
      return workloads::superblue_profile(benchmark, scale);
    case Workload::Synthetic:
      return workloads::synthetic_profile(benchmark, scale);
    case Workload::Iscas85:
      break;
  }
  return workloads::iscas85_profile(benchmark);
}

core::FlowOptions task_flow(const std::string& benchmark, Workload workload,
                            std::uint64_t seed, double scale) {
  // M6 correction pins for ISCAS (paper Sec. 5.1); M8 for superblue and the
  // large synthetic clones, which are routed like superblue. Utilization is
  // derated so the substrate router stays congestion-free — for superblue
  // x0.5 of the published rate, the paper's "appropriate utilization rates".
  core::FlowOptions f;
  f.seed = seed;
  f.router.passes = 3;
  f.placer.seed = seed;
  if (workload == Workload::Iscas85) {
    f.lift_layer = 6;
    f.placer.target_utilization = 0.45;
    f.placer.detailed_passes = 2;
  } else {
    f.lift_layer = 8;
    f.placer.target_utilization =
        task_spec(benchmark, workload, scale).utilization * 0.5;
    f.placer.detailed_passes = 1;
  }
  return f;
}

core::RandomizeOptions task_randomize(std::uint64_t seed) {
  core::RandomizeOptions r;
  r.seed = seed;
  r.target_oer = 0.995;
  r.check_patterns = 4096;
  return r;
}

const char* to_string(Defense d) {
  switch (d) {
    case Defense::Unprotected: return "unprotected";
    case Defense::Proposed: return "proposed";
    case Defense::PlacePerturb: return "place-perturb";
    case Defense::Random: return "random";
    case Defense::GColor: return "g-color";
    case Defense::GType1: return "g-type1";
    case Defense::GType2: return "g-type2";
    case Defense::PinSwap: return "pin-swap";
    case Defense::RoutePerturb: return "route-perturb";
    case Defense::RouteBlockage: return "route-blockage";
  }
  return "unprotected";
}

Defense defense_from_string(const std::string& name) {
  if (name == "unprotected" || name == "original") return Defense::Unprotected;
  if (name == "proposed" || name == "protected") return Defense::Proposed;
  if (name == "place-perturb") return Defense::PlacePerturb;
  if (name == "random") return Defense::Random;
  if (name == "g-color") return Defense::GColor;
  if (name == "g-type1") return Defense::GType1;
  if (name == "g-type2") return Defense::GType2;
  if (name == "pin-swap") return Defense::PinSwap;
  if (name == "route-perturb") return Defense::RoutePerturb;
  if (name == "route-blockage") return Defense::RouteBlockage;
  throw std::invalid_argument(
      "sweep: unknown defense '" + name +
      "' (want unprotected|proposed|place-perturb|random|g-color|g-type1|"
      "g-type2|pin-swap|route-perturb|route-blockage)");
}

bool is_baseline(Defense d) {
  return d != Defense::Unprotected && d != Defense::Proposed;
}

BaselineRecipe baseline_recipe(Defense d) {
  // Table 4 perturbs 5% of gates within 0.1 die widths for Wang [5] and
  // 25% within 0.2 for the Sengupta strategies [8]; Table 5 swaps
  // max(4, nets/50) pins [3] and elevates 15% of the nets [12]. For
  // Magana [7] this recipe scatters 5 blockages of die/14 on M1-M4, while
  // Table 6 blocks M1-M5. Each keeps its value: at M4, Table 6's --quick
  // blockage column would fall from +298/+70 to +28/+6 added V67/V78 vias,
  // and M5 here would change this recipe's pinned config hash.
  BaselineRecipe r;
  switch (d) {
    case Defense::PlacePerturb:
      r.fraction = 0.05;
      r.radius_frac = 0.1;
      break;
    case Defense::Random:
    case Defense::GColor:
    case Defense::GType1:
    case Defense::GType2:
      r.fraction = 0.25;
      r.radius_frac = 0.2;
      break;
    case Defense::PinSwap:
      r.min_swaps = 4;
      r.swap_divisor = 50;
      break;
    case Defense::RoutePerturb:
      r.fraction = 0.15;
      break;
    case Defense::RouteBlockage:
      r.blockages = 5;
      r.blockage_max_layer = 4;
      r.width_divisor = 14;
      break;
    case Defense::Unprotected:
    case Defense::Proposed:
      break;
  }
  return r;
}

const char* to_string(Attacker a) {
  switch (a) {
    case Attacker::Proximity: return "proximity";
    case Attacker::CRouting: return "crouting";
    case Attacker::Sat: return "sat";
  }
  return "proximity";
}

Attacker attacker_from_string(const std::string& name) {
  if (name == "proximity") return Attacker::Proximity;
  if (name == "crouting") return Attacker::CRouting;
  if (name == "sat") return Attacker::Sat;
  throw std::invalid_argument("sweep: unknown attacker '" + name +
                              "' (want proximity|crouting|sat)");
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::Iscas85: return "iscas85";
    case Workload::Superblue: return "superblue";
    case Workload::Synthetic: return "synthetic";
  }
  return "iscas85";
}

Workload workload_of(const std::string& benchmark) {
  const auto known = [&](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), benchmark) != names.end();
  };
  if (known(workloads::superblue_names())) return Workload::Superblue;
  if (known(workloads::synthetic_names())) return Workload::Synthetic;
  if (known(workloads::iscas85_names())) return Workload::Iscas85;
  throw std::invalid_argument("unknown benchmark '" + benchmark + "'");
}

std::size_t Grid::combinations() const {
  return benchmarks.size() * seeds.size() * split_layers.size() *
         defenses.size() * attackers.size();
}

void Grid::set(const std::string& key, const std::string& value) {
  const auto items = util::split_list(value, ',');
  if (key == "benchmarks") {
    benchmarks = items;
  } else if (key == "seeds") {
    seeds.clear();
    for (const auto& s : items)
      seeds.push_back(util::parse_count(s, "sweep: seed"));
  } else if (key == "splits" || key == "split-layers") {
    split_layers.clear();
    for (const auto& s : items) {
      // Range-checked before it narrows to int: 2^32 + 3 must not become 3.
      const std::size_t layer = util::parse_count(s, "sweep: split layer");
      if (layer < 1 || layer >= netlist::MetalStack::kNumLayers)
        throw std::invalid_argument("sweep: split layer '" + s +
                                    "' is not one of M1-M9");
      split_layers.push_back(static_cast<int>(layer));
    }
  } else if (key == "defenses") {
    defenses.clear();
    for (const auto& s : items) defenses.push_back(defense_from_string(s));
  } else if (key == "attackers") {
    attackers.clear();
    for (const auto& s : items) attackers.push_back(attacker_from_string(s));
  } else if (key == "scale") {
    scale = util::parse_double(value, "sweep: scale");
  } else {
    throw std::invalid_argument(
        "sweep: unknown grid key '" + key +
        "' (want benchmarks|seeds|splits|defenses|attackers|scale)");
  }
}

Grid Grid::parse(const std::string& spec) {
  Grid g;
  for (const auto& part : util::split_list(spec, ';')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("sweep: grid entry '" + part +
                                  "' is not key=value");
    g.set(part.substr(0, eq), part.substr(eq + 1));
  }
  return g;
}

namespace {

/// Render Row::equiv for the table ("-" when not applicable).
const char* equiv_text(int equiv) {
  switch (equiv) {
    case 1: return "eq";
    case 0: return "NEQ";
    case 2: return "?";
    default: return "-";
  }
}

}  // namespace

util::Table Result::table() const {
  util::Table t({"Benchmark", "Seed", "Split", "Defense", "Attacker", "CCR",
                 "CCR(rand)", "OER", "HD", "Open sinks", "E[LS]", "Equiv",
                 "Task ms"});
  for (const auto& r : rows) {
    const bool cut = r.open_sinks != 0;  // else the cell has no CCR
    // Crouting recovers no netlist, so it has no OER or HD; it is the only
    // attacker with candidate lists, so the only one with an E[LS], and
    // only when there is a vpin to list candidates for.
    const bool crouting = r.attacker == Attacker::CRouting;
    t.add_row({r.benchmark, std::to_string(r.seed),
               "M" + std::to_string(r.split_layer), to_string(r.defense),
               to_string(r.attacker), util::Table::pct_or_na(cut, 100 * r.ccr),
               util::Table::pct_or_na(cut, 100 * r.ccr_protected),
               util::Table::pct_or_na(!crouting, 100 * r.oer),
               util::Table::pct_or_na(!crouting, 100 * r.hd),
               util::Table::count(r.open_sinks),
               crouting && cut ? util::Table::num(r.els, 1) : "n/a",
               equiv_text(r.equiv), util::Table::num(r.wall_ms, 0)});
  }
  return t;
}

std::string Mean::pct(double metric) const {
  return util::Table::pct_or_na(cells != 0, 100 * metric);
}

std::map<MeanKey, Mean> Result::means() const {
  std::map<MeanKey, Mean> out;
  for (const auto& r : rows) {
    // A vacuous cell still names its group, so an all-vacuous group shows.
    Mean& m = out[{r.benchmark, r.defense, r.attacker}];
    if (r.open_sinks == 0) continue;
    m.ccr += r.ccr;
    m.ccr_protected += r.ccr_protected;
    m.oer += r.oer;
    m.hd += r.hd;
    ++m.cells;
  }
  for (auto& [key, m] : out) {
    if (!m.cells) continue;
    const double n = static_cast<double>(m.cells);
    m.ccr /= n;
    m.ccr_protected /= n;
    m.oer /= n;
    m.hd /= n;
  }
  return out;
}

util::Table Result::summary() const {
  util::Table t({"Benchmark", "Defense", "Attacker", "CCR", "CCR(rand)",
                 "OER", "HD", "Cells"});
  for (const auto& [key, m] : means()) {
    // A crouting group averages no OER or HD (see table()).
    const bool simulated =
        m.cells != 0 && std::get<2>(key) != Attacker::CRouting;
    t.add_row({std::get<0>(key), to_string(std::get<1>(key)),
               to_string(std::get<2>(key)), m.pct(m.ccr),
               m.pct(m.ccr_protected),
               util::Table::pct_or_na(simulated, 100 * m.oer),
               util::Table::pct_or_na(simulated, 100 * m.hd),
               util::Table::count(m.cells)});
  }
  return t;
}

std::string Result::to_csv() const {
  std::ostringstream os;
  os << "benchmark,seed,split_layer,defense,attacker,ccr,ccr_protected,oer,"
        "hd,open_sinks,swaps,els,equiv,task_wall_ms\n";
  for (const auto& r : rows) {
    os << r.benchmark << ',' << r.seed << ',' << r.split_layer << ','
       << to_string(r.defense) << ',' << to_string(r.attacker) << ',' << r.ccr
       << ',' << r.ccr_protected << ',' << r.oer << ',' << r.hd << ','
       << r.open_sinks << ',' << r.swaps << ',' << r.els << ',' << r.equiv
       << ',' << r.wall_ms << '\n';
  }
  return os.str();
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\n  \"jobs\": " << jobs << ",\n  \"wall_ms\": " << wall_ms
     << ",\n  \"computed_cells\": " << computed_cells
     << ",\n  \"resumed_cells\": " << resumed_cells
     << ",\n  \"quarantined_cells\": " << quarantined_cells
     << ",\n  \"cache\": {\"netlists\": " << cache_stats.netlists
     << ", \"placements\": " << cache_stats.placements
     << ", \"base_routes\": " << cache_stats.base_routes
     << ", \"hits\": " << cache_stats.hits << "},\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    os << (i ? "," : "") << "\n    {\"benchmark\": \""
       << util::json_escape(r.benchmark) << "\", \"seed\": " << r.seed
       << ", \"split_layer\": " << r.split_layer << ", \"defense\": \""
       << to_string(r.defense) << "\", \"attacker\": \""
       << to_string(r.attacker) << "\", \"ccr\": " << r.ccr
       << ", \"ccr_protected\": " << r.ccr_protected << ", \"oer\": " << r.oer
       << ", \"hd\": " << r.hd << ", \"open_sinks\": " << r.open_sinks
       << ", \"swaps\": " << r.swaps << ", \"els\": " << r.els
       << ", \"equiv\": " << r.equiv << ", \"task_wall_ms\": " << r.wall_ms
       << "}";
  }
  os << (rows.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

Result run(const Grid& grid, const Options& opts) {
  if (opts.resume && opts.store_path.empty())
    throw std::invalid_argument("sweep: resume requires a store path");

  // Expand the grid into hashed cells (validates every benchmark name and
  // split layer up front, so a typo throws before hours of work). Cells
  // are task-major: task k owns cells [k*cpt, (k+1)*cpt), attacker
  // innermost — the same blocks as result.rows.
  const auto cells = expand_cells(grid, opts);
  const std::size_t cpt = grid.split_layers.size() * grid.attackers.size();
  const std::size_t n_tasks = cpt ? cells.size() / cpt : 0;

  Result result;
  result.rows.resize(cells.size());

  // Resume prefill: rows whose config hash is already logged are copied
  // from the store and their cells masked off; a task with no missing
  // cell never runs at all. The recomputed subset is bit-identical to a
  // from-scratch run (test-enforced), because each cell's attack depends
  // only on (grid seed, split layer) — see run_task.
  const StoreContents resumed =
      opts.resume ? load_store({opts.store_path}, /*must_exist=*/false)
                  : StoreContents{};
  std::vector<std::vector<char>> compute(n_tasks);
  std::vector<char> quarantined(cells.size(), 0);
  std::vector<std::size_t> runnable;  // task indices with work left
  runnable.reserve(n_tasks);
  for (std::size_t k = 0; k < n_tasks; ++k) {
    compute[k].assign(cpt, 1);
    std::size_t missing = cpt;
    for (std::size_t ci = 0; ci < cpt; ++ci) {
      const CellRef& cell = cells[k * cpt + ci];
      const auto it = resumed.records.find(cell.config_hash);
      if (it == resumed.records.end()) continue;
      compute[k][ci] = 0;
      --missing;
      if (it->second.failed) {
        // Quarantined by a supervisor after repeated worker deaths:
        // recomputing it here would just die the same way. Skip it and
        // drop its row (no metrics exist) — the cell stays visible through
        // Result::quarantined_cells and `sm_flow materialize`.
        quarantined[k * cpt + ci] = 1;
        ++result.quarantined_cells;
        continue;
      }
      result.rows[k * cpt + ci] = it->second.row;
      ++result.resumed_cells;
    }
    result.computed_cells += missing;
    if (missing) runnable.push_back(k);
  }

  result.jobs = util::resolve_jobs(opts.jobs, runnable.size());

  // The event log. Appends are keyed by config hash, so re-running into an
  // existing store is safe (duplicate keys materialize last-wins).
  std::unique_ptr<StoreWriter> writer;
  if (!opts.store_path.empty())
    writer = std::make_unique<StoreWriter>(opts.store_path);

  // The libraries and the cache outlive every task (cached netlists keep a
  // pointer to their library); both are only read concurrently.
  const netlist::CellLibrary lib_iscas{6};
  const netlist::CellLibrary lib_superblue{8};
  core::LayoutCache cache;

  const double t0 = now_ms();
  // The row block of task k is [k*cpt, (k+1)*cpt): grid-major order, and
  // no two tasks share a row — workers never contend on results. The
  // per-cell completion callback appends to the store (its own lock
  // serializes writers) the moment a cell's row is final, which is what
  // makes a mid-sweep crash resumable.
  util::parallel_for(opts.jobs, runnable.size(), [&](std::size_t i) {
    const std::size_t k = runnable[i];
    const CellRef& first = cells[k * cpt];
    const Task task{first.benchmark, first.seed, first.defense,
                    first.workload,
                    // All defenses of one (bench, seed) share one cache
                    // entry. The key needn't carry scale/options: they are
                    // constant within a run and the cache lives exactly as
                    // long as the run.
                    first.benchmark + "/" + std::to_string(first.seed)};
    Row* rows = result.rows.data() + k * cpt;
    const CellCallback on_cell = [&, k](std::size_t ci) {
      if (!writer) return;
      const CellRef& cell = cells[k * cpt + ci];
      StoreRecord rec;
      rec.config_hash = cell.config_hash;
      rec.row = rows[ci];
      rec.patterns = opts.patterns;
      rec.scale = grid.scale;
      rec.config_json = cell_config_json(grid, opts, cell.benchmark,
                                         cell.workload, cell.seed,
                                         cell.defense, cell.split_layer,
                                         cell.attacker);
      writer->append(rec);
    };
    run_task(task, grid, opts,
             task.workload == Workload::Iscas85 ? lib_iscas : lib_superblue,
             cache, rows, compute[k], on_cell);
  });
  result.wall_ms = now_ms() - t0;
  result.cache_stats = cache.stats();
  if (result.quarantined_cells) {
    // Quarantined cells hold no metrics — compact their placeholder rows
    // out so tables/CSV only ever show real results (grid-major order
    // among the surviving cells is preserved).
    std::vector<Row> rows;
    rows.reserve(result.rows.size() - result.quarantined_cells);
    for (std::size_t i = 0; i < result.rows.size(); ++i)
      if (!quarantined[i]) rows.push_back(std::move(result.rows[i]));
    result.rows = std::move(rows);
  }
  return result;
}

}  // namespace sm::sweep
