#include "core/pipeline.hpp"

#include "sim/simulator.hpp"
#include "util/config_hash.hpp"

#include <algorithm>
#include <utility>

namespace sm::core {

using netlist::Netlist;

timing::PpaReport evaluate_ppa(const Netlist& nl, const LayoutResult& layout,
                               const FlowOptions& opts,
                               const std::vector<timing::NetExtra>& extra) {
  const auto activity =
      sim::toggle_rates(nl, kActivityPatterns, opts.seed ^ 0xac7ULL);
  return timing::Sta().analyze(nl, layout.placement, layout.routing, activity,
                               extra);
}

std::string canonical_flow_json(const FlowOptions& opts) {
  // Keys are lexicographic within each object (the canonical-JSON
  // convention of util::config_hash); adding a field here intentionally
  // changes every hash — bump-and-recompute is the upgrade path, silently
  // reusing stale cells is the failure mode this guards against. A setting
  // that became a constant keeps its key and writes its constant.
  util::JsonWriter w;
  w.begin_object();
  w.key("activity_patterns").value(kActivityPatterns);
  // Fixed literals, here and at "gcell_um": route_step always sizes the
  // gcell from the die, so router.gcell_um reaches no layout and is not
  // hashed. Every stored hash covers "auto_gcell":true and the router's
  // default "gcell_um":2.8, so writing them keeps every hash unchanged.
  w.key("auto_gcell").value(true);
  w.key("buffering").value(opts.buffering);
  w.key("buffering_opts").begin_object();
  w.key("hpwl_threshold_um").value(opts.buffering_opts.hpwl_threshold_um);
  w.key("strength2_um").value(place::kStrength2Um);
  w.key("strength4_um").value(place::kStrength4Um);
  w.key("strength8_um").value(place::kStrength8Um);
  w.end_object();
  w.key("lift_layer").value(opts.lift_layer);
  w.key("op").begin_object();
  w.key("clock_period_ns").value(timing::kClockPeriodNs);
  w.key("default_activity").value(timing::kDefaultActivity);
  w.key("vdd").value(timing::kVdd);
  w.end_object();
  w.key("placer").begin_object();
  w.key("aspect_ratio").value(place::kAspectRatio);
  w.key("detailed_passes").value(opts.placer.detailed_passes);
  w.key("fm_balance").value(place::kFmBalance);
  w.key("fm_passes").value(place::kFmPasses);
  w.key("force_alpha").value(place::kForceAlpha);
  w.key("force_iterations").value(place::kForceIterations);
  w.key("leaf_cells").value(place::kLeafCells);
  w.key("seed").value(opts.placer.seed);
  w.key("target_utilization").value(opts.placer.target_utilization);
  w.end_object();
  w.key("router").begin_object();
  w.key("bbox_margin").value(route::kBboxMargin);
  w.key("blockages").begin_array();
  for (const auto& b : opts.router.blockages) {
    w.begin_object();
    w.key("max_layer").value(b.max_layer);
    w.key("min_layer").value(b.min_layer);
    w.key("x0").value(b.region.lo.x);
    w.key("x1").value(b.region.hi.x);
    w.key("y0").value(b.region.lo.y);
    w.key("y1").value(b.region.hi.y);
    w.end_object();
  }
  w.end_array();
  w.key("gcell_um").value(2.8);
  w.key("history_increment").value(route::kHistoryIncrement);
  w.key("overflow_penalty").value(route::kOverflowPenalty);
  // A fixed literal: the router's former scheduler option, whose default
  // every stored hash covers. Keeping it keeps every config hash (and the
  // golden pins in tests/test_store*.cpp) unchanged.
  w.key("partition").value("tree");
  w.key("passes").value(opts.router.passes);
  w.key("seed").value(opts.router.seed);
  w.key("tie_jitter").value(opts.router.tie_jitter);
  w.key("via_cost").value(route::kViaCost);
  w.end_object();
  w.key("seed").value(opts.seed);
  w.end_object();
  return w.str();
}

PlacedDesign place_design(const Netlist& nl, const FlowOptions& opts,
                          const std::vector<netlist::NetId>& skip) {
  PlacedDesign out;
  place::Placer placer(opts.placer);
  if (opts.buffering) {
    // Buffering mutates the netlist; size a copy and carry it along.
    Netlist sized = nl.clone();
    out.placement = placer.place(sized);
    place::insert_buffers(sized, out.placement, opts.buffering_opts, skip);
    place::legalize_rows(sized, out.placement);
    out.sized = std::move(sized);
  } else {
    out.placement = placer.place(nl);
  }
  return out;
}

void route_step(const Netlist& nl, LayoutResult& layout,
                const FlowOptions& opts, const std::vector<int>& min_layer,
                const CorrectionPlan& plan) {
  auto& tasks = layout.tasks;
  tasks = route::make_tasks(nl, layout.placement, min_layer);
  // A plan cell is one more terminal of the net it taps, after the net's
  // sinks; cells on one net join in plan order.
  std::vector<route::RouteTask*> task_of(nl.num_nets(), nullptr);
  for (auto& t : tasks) task_of[t.net] = &t;
  for (const auto& cell : plan.cells)
    if (cell.tapped_net < task_of.size() && task_of[cell.tapped_net])
      task_of[cell.tapped_net]->terminals.push_back(
          {cell.pos, plan.pin_layer});
  layout.num_net_tasks = tasks.size();
  for (const auto& wire : plan.wires)  // BEOL-only: tagged with no net
    tasks.push_back({netlist::kInvalidNet,
                     {{plan.cells[wire.from_cell].pos, plan.pin_layer},
                      {plan.cells[wire.to_cell].pos, plan.pin_layer}},
                     plan.pin_layer});

  // The gcell follows the die (small ISCAS dies need a fine grid or vpin
  // positions quantize away the proximity signal): the die's longer side
  // over 48, clamped to [1, 2.8] um.
  const util::Rect& die = layout.placement.floorplan.die;
  route::RouterOptions ropts = opts.router;
  ropts.gcell_um =
      std::clamp(std::max(die.width(), die.height()) / 48.0, 1.0, 2.8);
  layout.routing = route::Router(ropts).route(tasks, die, nl.library().metal());
}

LayoutResult route_design(const Netlist& nl, const PlacedDesign& placed,
                          const FlowOptions& opts) {
  return route_design(nl, PlacedDesign(placed), opts);
}

LayoutResult route_design(const Netlist& nl, PlacedDesign&& placed,
                          const FlowOptions& opts) {
  LayoutResult out;
  out.placement = std::move(placed.placement);
  out.sized_netlist = std::move(placed.sized);
  const Netlist& phys = out.physical(nl);
  route_step(phys, out, opts);
  out.ppa = evaluate_ppa(phys, out, opts);
  return out;
}

/// One benchmark instance. Each stage pairs a once_flag with its product;
/// call_once gives the build-at-most-once and block-later-callers
/// semantics, and the products live behind stable unique_ptr entries so
/// returned references survive map rehashing.
struct LayoutCache::Entry {
  std::once_flag netlist_once;
  std::optional<netlist::Netlist> netlist;
  std::once_flag placed_once;
  std::optional<PlacedDesign> placed;
  std::once_flag base_once;
  std::optional<LayoutResult> base;
};

LayoutCache::LayoutCache() = default;
LayoutCache::~LayoutCache() = default;

LayoutCache::Entry& LayoutCache::entry(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = entries_[key];
  if (!slot) slot = std::make_unique<Entry>();
  return *slot;
}

const netlist::Netlist& LayoutCache::netlist(
    const std::string& key, const std::function<netlist::Netlist()>& build) {
  Entry& e = entry(key);
  bool built = false;
  std::call_once(e.netlist_once, [&] {
    e.netlist.emplace(build());
    built = true;
  });
  const std::lock_guard<std::mutex> lock(mu_);
  if (built)
    ++stats_.netlists;
  else
    ++stats_.hits;
  return *e.netlist;
}

const PlacedDesign& LayoutCache::placed(const std::string& key,
                                        const netlist::Netlist& nl,
                                        const FlowOptions& opts) {
  Entry& e = entry(key);
  bool built = false;
  std::call_once(e.placed_once, [&] {
    e.placed.emplace(place_design(nl, opts));
    built = true;
  });
  const std::lock_guard<std::mutex> lock(mu_);
  if (built)
    ++stats_.placements;
  else
    ++stats_.hits;
  return *e.placed;
}

const LayoutResult& LayoutCache::base_layout(const std::string& key,
                                             const netlist::Netlist& nl,
                                             const FlowOptions& opts) {
  Entry& e = entry(key);
  bool built = false;
  std::call_once(e.base_once, [&] {
    e.base.emplace(route_design(nl, placed(key, nl, opts), opts));
    built = true;
  });
  const std::lock_guard<std::mutex> lock(mu_);
  if (built)
    ++stats_.base_routes;
  else
    ++stats_.hits;
  return *e.base;
}

LayoutCache::Stats LayoutCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace sm::core
