// The staged layout pipeline and its cross-defense cache.
//
// Producing a layout is a chain of defense-independent stages —
//
//   netlist  ──place_design──▶  PlacedDesign  ──route_design──▶  LayoutResult
//
// — and `layout_original()` is exactly that chain. The protection flow and
// the prior-art baselines branch off it: protect() re-places a *different*
// (erroneous) netlist, but every defense of one (bench, seed) pair starts
// from the same generated netlist, and every attack on the unprotected
// reference starts from the same base placement and route. LayoutCache
// memoizes those shared products so a sweep computes them once per
// (bench, seed) instead of once per (bench, seed, defense).
#pragma once

#include "core/protect.hpp"

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sm::core {

/// Stage-1 product: a netlist placed and, when FlowOptions::buffering is
/// on, repeater-sized (the sized netlist is what the layout implements).
struct PlacedDesign {
  place::Placement placement;
  /// Present only when buffering ran; route/report against this netlist.
  std::optional<netlist::Netlist> sized;

  const netlist::Netlist& physical(const netlist::Netlist& logical) const {
    return sized ? *sized : logical;
  }
};

/// Stage 1: place `nl` (plus optional repeater insertion + re-legalization).
/// Deterministic in (nl, opts).
PlacedDesign place_design(const netlist::Netlist& nl, const FlowOptions& opts);

/// Stage 2: route a placed design and evaluate its PPA. Deterministic in
/// (nl, placed, opts); RouterOptions::jobs never changes the result.
/// The const-ref overload copies the stage-1 products (what a cached,
/// shared PlacedDesign needs); the rvalue overload moves them (the
/// single-use layout_original path).
LayoutResult route_design(const netlist::Netlist& nl,
                          const PlacedDesign& placed, const FlowOptions& opts);
LayoutResult route_design(const netlist::Netlist& nl, PlacedDesign&& placed,
                          const FlowOptions& opts);

/// Router options tuned to a floorplan (the auto-gcell sizing rule).
/// Shared by every stage that routes, including protect().
route::RouterOptions tuned_router(const FlowOptions& opts,
                                  const place::Floorplan& fp);

/// Linear-model STA + activity-based power of a routed layout.
timing::PpaReport evaluate_ppa(const netlist::Netlist& nl,
                               const LayoutResult& layout,
                               const FlowOptions& opts,
                               const std::vector<timing::NetExtra>& extra = {});

/// Canonical JSON of every FlowOptions field that can change a layout —
/// the flow half of a sweep cell's config hash (util::config_hash over the
/// cell recipe, see sweep/store.hpp). Covers the placer, the router, the
/// lift layer, the operating point, the activity/seed inputs, and the
/// buffering knobs. Deliberately EXCLUDED: `router.jobs`, which the router
/// ignores, and `buffering_opts.skip`, per-call runtime state (the
/// protected-net list) fully determined by fields already hashed.
std::string canonical_flow_json(const FlowOptions& opts);

/// Memoizes the defense-independent stage products of benchmark instances:
/// the generated netlist, its placement (stage 1), and the unprotected
/// base layout (stage 2). Stages build lazily and independently — a sweep
/// whose grid holds only protected defenses never routes a base layout.
///
/// Keys are caller-chosen strings. Invalidation contract: the cache trusts
/// a key to fully determine every builder input (generator spec, seed,
/// FlowOptions), entries are immutable once built, and nothing is ever
/// evicted — callers changing any stage input must fold it into the key or
/// use a fresh cache, and returned references stay valid for the cache's
/// lifetime.
///
/// Thread-safe: concurrent calls build each (key, stage) at most once
/// (later callers block until the builder finishes). Builders must not
/// re-enter the cache with the same key.
class LayoutCache {
 public:
  LayoutCache();
  ~LayoutCache();  // out of line: Entry is incomplete here
  LayoutCache(const LayoutCache&) = delete;
  LayoutCache& operator=(const LayoutCache&) = delete;

  /// The generated netlist for `key`, built on first use.
  const netlist::Netlist& netlist(
      const std::string& key,
      const std::function<netlist::Netlist()>& build);

  /// Stage 1 for `key`: placement of `nl` under `opts`, built on first use.
  const PlacedDesign& placed(const std::string& key,
                             const netlist::Netlist& nl,
                             const FlowOptions& opts);

  /// Stage 2 for `key`: the unprotected base layout (routes stage 1's
  /// placement), built on first use.
  const LayoutResult& base_layout(const std::string& key,
                                  const netlist::Netlist& nl,
                                  const FlowOptions& opts);

  /// Build counters (how often each stage actually ran) plus the number of
  /// calls served from an already-built stage. The sweep's
  /// placement-once-per-(bench, seed) guarantee is asserted against these.
  struct Stats {
    std::size_t netlists = 0;
    std::size_t placements = 0;
    std::size_t base_routes = 0;
    std::size_t hits = 0;
  };
  Stats stats() const;

 private:
  struct Entry;
  Entry& entry(const std::string& key);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  Stats stats_;
};

}  // namespace sm::core
