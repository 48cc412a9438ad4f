#include "attack/proximity.hpp"

#include "attack/mcmf.hpp"
#include "netlist/topo.hpp"
#include "util/grid_index.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace sm::attack {

using core::Fragment;
using core::SplitView;
using netlist::CellId;
using netlist::NetId;
using netlist::Netlist;
using netlist::Sink;
using util::GridIndex;
using util::Point;

namespace {

/// Hypothesis connectivity the attacker grows: visible FEOL connections plus
/// committed guesses. Supports incremental combinational-loop checks. The
/// visited set is an epoch-stamped vector reused across queries — would_loop
/// sits in the innermost commit loops and must not allocate per call.
class Hypothesis {
 public:
  explicit Hypothesis(const Netlist& nl) : nl_(&nl) {
    adj_.resize(nl.num_cells());
    mark_.assign(nl.num_cells(), 0);
  }

  void add_edge(CellId from, CellId to) { adj_[from].push_back(to); }

  /// Undo one earlier add_edge(from, to) — the latest matching occurrence
  /// (duplicates are legitimate: two sink fragments may pull the same
  /// driver->cell pair). The caller guarantees the edge exists.
  void remove_edge(CellId from, CellId to) {
    auto& v = adj_[from];
    const auto it = std::find(v.rbegin(), v.rend(), to);
    v.erase(std::next(it).base());
  }

  /// Would from->to close a combinational cycle? (from reachable from to)
  bool would_loop(CellId from, CellId to) const {
    if (!nl_->is_combinational(from)) return false;
    if (from == to) return true;
    if (++epoch_ == 0) {  // epoch wrapped: old stamps are ambiguous, reset
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    stack_.clear();
    stack_.push_back(to);
    mark_[to] = epoch_;
    while (!stack_.empty()) {
      const CellId cur = stack_.back();
      stack_.pop_back();
      if (!nl_->is_combinational(cur)) continue;
      for (const CellId nxt : adj_[cur]) {
        if (nxt == from) return true;
        if (mark_[nxt] != epoch_) {
          mark_[nxt] = epoch_;
          stack_.push_back(nxt);
        }
      }
    }
    return false;
  }

 private:
  const Netlist* nl_;
  std::vector<std::vector<CellId>> adj_;
  mutable std::vector<std::uint32_t> mark_;  ///< visited iff == epoch_
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<CellId> stack_;
};

Point frag_anchor(const Fragment& f) {
  return f.vpins.empty() ? f.anchor : f.vpins.front().pos;
}

/// Largest Manhattan offset of any vpin from the fragment's indexed anchor.
/// The index stores one point per fragment; this slack restores a valid
/// distance lower bound for the whole vpin cloud.
double vpin_spread(const Fragment& f) {
  double r = 0.0;
  const Point a = frag_anchor(f);
  for (const auto& v : f.vpins) r = std::max(r, util::manhattan(a, v.pos));
  return r;
}

/// The drive-strength prior (ProximityOptions::use_strength_prior). Its
/// factor, 1 + kStrengthPriorWeight * min(mismatch, 2), is never below 1,
/// so it cannot lower CandidateFinder's cost floor.
constexpr double kStrengthPriorWeight = 0.4;
constexpr double kStrengthPriorScaleUm = 180.0;

/// Matching cost between a driver fragment and a sink fragment: closest
/// vpin-pair Manhattan distance, discounted when the dangling-wire stubs
/// point at each other (hint (iv) of [5] — the BEOL continuation of a wire
/// usually proceeds in the direction its FEOL stub was heading).
double pair_cost(const Netlist& feol, const Fragment& drv,
                 const Fragment& snk, const ProximityOptions& opts) {
  const bool use_dir = opts.use_direction;
  const double dir_bonus = opts.direction_bonus;
  // Drive-strength prior: penalize matches whose distance disagrees with
  // what the driver's strength suggests (hint discussed in paper Sec. 3).
  double prior_factor = 1.0;
  if (opts.use_strength_prior) {
    const auto& t = feol.type_of(feol.net(drv.net).driver);
    const double expected =
        kStrengthPriorScaleUm / std::max(t.drive_res_kohm, 0.5);
    const double actual =
        util::manhattan(frag_anchor(drv), frag_anchor(snk)) + 1.0;
    const double mismatch = std::abs(std::log((actual + 1.0) / (expected + 1.0)));
    prior_factor += kStrengthPriorWeight * std::min(mismatch, 2.0);
  }
  double best = util::manhattan(frag_anchor(drv), frag_anchor(snk)) + 1.0;
  auto consider = [&](const core::VPin& d, const core::VPin& s) {
    const double vx = s.pos.x - d.pos.x;
    const double vy = s.pos.y - d.pos.y;
    const double dist = std::abs(vx) + std::abs(vy) + 1.0;
    const double norm = std::sqrt(vx * vx + vy * vy) + 1e-9;
    double factor = 1.0;
    if (use_dir) {
      const double half = (1.0 - dir_bonus) / 2.0;
      if (d.dir_dx != 0 || d.dir_dy != 0) {
        const double cosd = (vx * d.dir_dx + vy * d.dir_dy) / norm;
        factor -= half * std::max(0.0, cosd);
      }
      if (s.dir_dx != 0 || s.dir_dy != 0) {
        const double coss = (-vx * s.dir_dx - vy * s.dir_dy) / norm;
        factor -= half * std::max(0.0, coss);
      }
      // Track alignment: preferred-direction BEOL layers keep one grid
      // coordinate constant, so a partner sharing the vpin's routing track
      // is far more plausible than an off-track one (a straight bridge beats
      // an L- or Z-shaped one).
      if (d.grid.x == s.grid.x || d.grid.y == s.grid.y)
        factor *= opts.track_bonus;
    }
    best = std::min(best, dist * factor);
  };
  if (drv.vpins.empty() || snk.vpins.empty()) return best * prior_factor;
  for (const auto& dv : drv.vpins)
    for (const auto& sv : snk.vpins) consider(dv, sv);
  return best * prior_factor;
}

/// One candidate pairing; per-sink lists are sorted by (cost, di) — the
/// explicit driver-index tie-break keeps the indexed and brute-force paths
/// bit-identical.
struct Cand {
  double cost;
  std::size_t di;

  friend bool operator<(const Cand& a, const Cand& b) {
    return a.cost < b.cost || (a.cost == b.cost && a.di < b.di);
  }
};

/// Ranks driver fragments per sink fragment by pair_cost. Large instances
/// go through a GridIndex holding every driver-fragment vpin (plus the
/// anchor of vpin-less fragments) tagged with its owning driver; a query
/// walks expanding rings from the sink's anchor and prunes with the exact
/// lower bound
///   pair_cost >= (max(0, vpin_dist - sink vpin spread) + 1) * cost_floor,
/// valid because every distance pair_cost can be built from starts at one
/// of the driver's indexed points. The query stops once every unvisited
/// driver is provably worse than the current k-th candidate, so the result
/// equals the brute-force scan. Small instances (or a direction_bonus low
/// enough to void the bound) use brute force directly. The rankings are
/// pure functions of the view; only the per-query visit scratch is
/// mutable, like Hypothesis's.
class CandidateFinder {
 public:
  CandidateFinder(const Netlist& feol, const SplitView& view,
                  const std::vector<std::size_t>& drv_frag_ids,
                  const ProximityOptions& opts)
      : feol_(&feol), view_(&view), drv_ids_(&drv_frag_ids), opts_(&opts) {
    const std::size_t nd = drv_frag_ids.size();
    cost_floor_ = 1.0;
    if (opts.use_direction) {
      // The stub cosine is taken against an unnormalized direction vector
      // whose components are in {-1, 0, 1}, so it reaches sqrt(2) for
      // diagonal stubs — the per-endpoint discount can exceed `half`.
      // factor >= 1 - 2*half*sqrt(2) = 1 - (1-bonus)*sqrt(2) is the
      // universally sound floor; when it is <= 0 (direction_bonus below
      // ~0.3) the use_index_ guard falls back to brute force.
      const double dir_min =
          1.0 - (1.0 - std::min(1.0, opts.direction_bonus)) * std::sqrt(2.0);
      cost_floor_ = std::max(0.0, dir_min) * std::min(1.0, opts.track_bonus);
    }
    use_index_ = nd >= static_cast<std::size_t>(
                           std::max(1, opts.index_min_drivers)) &&
                 cost_floor_ > 0.0;
    if (!use_index_) return;
    std::vector<Point> points;
    for (std::size_t di = 0; di < nd; ++di) {
      const Fragment& f = view.fragments[drv_frag_ids[di]];
      if (f.vpins.empty()) {
        points.push_back(f.anchor);
        owner_.push_back(di);
      } else {
        for (const auto& v : f.vpins) {
          points.push_back(v.pos);
          owner_.push_back(di);
        }
      }
    }
    index_ = GridIndex(points, opts.index_target_per_cell);
    mark_.assign(nd, 0);
  }

  /// The k cheapest drivers for `sf`, ascending by (cost, di).
  std::vector<Cand> cheapest(const Fragment& sf, std::size_t k) const {
    const std::size_t nd = drv_ids_->size();
    k = std::min(k, nd);
    if (k == 0) return {};
    if (!use_index_ || k == nd) {
      std::vector<Cand> all;
      all.reserve(nd);
      for (std::size_t di = 0; di < nd; ++di)
        all.push_back({cost_of(sf, di), di});
      std::partial_sort(all.begin(),
                        all.begin() + static_cast<std::ptrdiff_t>(k),
                        all.end(),
                        std::less<Cand>());
      all.resize(k);
      return all;
    }
    // Intra-query visited set deduplicating multi-vpin drivers.
    if (++epoch_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    const Point q = frag_anchor(sf);
    const double slack = vpin_spread(sf);
    // Max-heap of the k best seen; heap.front() is the current worst kept.
    std::vector<Cand> heap;
    heap.reserve(k + 1);
    const auto worse = [](const Cand& a, const Cand& b) { return a < b; };
    index_.for_each_ring(
        q,
        [&](std::size_t pt) {
          const std::size_t di = owner_[pt];
          if (mark_[di] == epoch_) return;  // another vpin already scored it
          mark_[di] = epoch_;
          const Cand c{cost_of(sf, di), di};
          if (heap.size() < k) {
            heap.push_back(c);
            std::push_heap(heap.begin(), heap.end(), worse);
          } else if (c < heap.front()) {
            std::pop_heap(heap.begin(), heap.end(), worse);
            heap.back() = c;
            std::push_heap(heap.begin(), heap.end(), worse);
          }
        },
        [&](double lb) {
          if (heap.size() < k) return true;
          const double floor =
              (std::max(0.0, lb - slack) + 1.0) * cost_floor_;
          // `<=`: an unvisited driver at exactly the k-th cost may still win
          // the (cost, di) tie-break.
          return floor <= heap.front().cost;
        });
    std::sort(heap.begin(), heap.end());
    return heap;
  }

  /// All drivers for `sf`, ascending by (cost, di) — the repair fallback.
  /// (k == nd takes cheapest()'s brute branch, so both orderings share one
  /// comparator by construction.)
  std::vector<Cand> ranking(const Fragment& sf) const {
    return cheapest(sf, drv_ids_->size());
  }

 private:
  double cost_of(const Fragment& sf, std::size_t di) const {
    return pair_cost(*feol_, view_->fragments[(*drv_ids_)[di]], sf, *opts_);
  }

  const Netlist* feol_;
  const SplitView* view_;
  const std::vector<std::size_t>* drv_ids_;
  const ProximityOptions* opts_;
  GridIndex index_;
  std::vector<std::size_t> owner_;  ///< indexed point -> driver index
  double cost_floor_ = 1.0;
  bool use_index_ = false;
  mutable std::vector<std::uint32_t> mark_;  ///< visited iff == epoch_
  mutable std::uint32_t epoch_ = 0;
};

}  // namespace

ProximityResult proximity_attack(const Netlist& feol, const Netlist& original,
                                 const place::Placement& pl,
                                 const SplitView& view,
                                 const core::SwapLedger* ledger,
                                 const ProximityOptions& opts) {
  (void)pl;  // fragment anchors already carry the physical positions
  ProximityResult result;

  const auto drv_frag_ids = view.open_driver_fragments();
  const auto snk_frag_ids = view.open_sink_fragments();
  const std::size_t nd = drv_frag_ids.size();
  const std::size_t ns = snk_frag_ids.size();

  // Sink pins the attacker must recover (everything else is FEOL-visible).
  // Sorted flat vector: queried in the per-driver budget loops and the
  // scoring pass, where a node-based set's allocations would dominate.
  std::vector<std::pair<CellId, int>> open_pins;
  for (const auto fi : snk_frag_ids)
    for (const auto& s : view.fragments[fi].sinks)
      open_pins.push_back({s.cell, s.pin});
  std::sort(open_pins.begin(), open_pins.end());
  open_pins.erase(std::unique(open_pins.begin(), open_pins.end()),
                  open_pins.end());
  const auto pin_open = [&](CellId cell, int pin) {
    return std::binary_search(open_pins.begin(), open_pins.end(),
                              std::make_pair(cell, pin));
  };

  Hypothesis hyp(feol);
  for (NetId n = 0; n < feol.num_nets(); ++n) {
    const auto& net = feol.net(n);
    for (const auto& s : net.sinks)
      if (!pin_open(s.cell, s.pin)) hyp.add_edge(net.driver, s.cell);
  }

  // Driver fanout capacity from the load budget (hint (iii)).
  auto sink_caps = [&](const Fragment& sf) {
    double c = 0;
    for (const auto& s : sf.sinks) c += feol.type_of(s.cell).input_cap_ff;
    return std::max(c, 0.1);
  };
  std::vector<int> drv_capacity(nd, static_cast<int>(ns));
  if (opts.use_load) {
    // Average open-sink-fragment load translates budget into a count.
    double avg_frag_cap = 0.0;
    for (const auto fi : snk_frag_ids)
      avg_frag_cap += sink_caps(view.fragments[fi]);
    avg_frag_cap = ns > 0 ? avg_frag_cap / static_cast<double>(ns) : 1.0;
    for (std::size_t di = 0; di < nd; ++di) {
      const Fragment& f = view.fragments[drv_frag_ids[di]];
      const auto& t = feol.type_of(feol.net(f.net).driver);
      double budget =
          opts.load_budget_ff_per_ks / std::max(t.drive_res_kohm, 0.5);
      for (const auto& s : feol.net(f.net).sinks)
        if (!pin_open(s.cell, s.pin))
          budget -= feol.type_of(s.cell).input_cap_ff;
      drv_capacity[di] = std::max(1, static_cast<int>(budget / avg_frag_cap));
    }
  }

  // Candidate edges: the k cheapest driver fragments per sink fragment,
  // queried through the spatial index (brute force for small nd).
  const CandidateFinder finder(feol, view, drv_frag_ids, opts);
  const std::size_t k =
      opts.candidates_per_sink <= 0
          ? nd
          : std::min(nd, static_cast<std::size_t>(opts.candidates_per_sink));
  std::vector<std::vector<Cand>> per_sink(ns);
  for (std::size_t si = 0; si < ns; ++si)
    per_sink[si] = finder.cheapest(view.fragments[snk_frag_ids[si]], k);

  // Min-cost flow: source -> sink-fragments (cap 1) -> candidate drivers
  // (cap 1 each edge) -> drivers -> target (cap = fanout budget).
  std::vector<std::size_t> assigned(ns, static_cast<std::size_t>(-1));
  if (nd > 0 && ns > 0) {
    const int S = 0;
    const int T = 1;
    const auto sink_node = [&](std::size_t si) { return 2 + static_cast<int>(si); };
    const auto drv_node = [&](std::size_t di) {
      return 2 + static_cast<int>(ns) + static_cast<int>(di);
    };
    MinCostFlow flow(2 + static_cast<int>(ns + nd));
    for (std::size_t si = 0; si < ns; ++si) flow.add_edge(S, sink_node(si), 1, 0);
    for (std::size_t di = 0; di < nd; ++di)
      flow.add_edge(drv_node(di), T, drv_capacity[di], 0);
    struct EdgeRef {
      int edge;
      std::size_t si, di;
      double cost;
    };
    std::vector<EdgeRef> refs;
    for (std::size_t si = 0; si < ns; ++si)
      for (const auto& c : per_sink[si]) {
        // Integer-exact edge cost (the MCMF warm-start contract,
        // ARCHITECTURE.md): the geometric cost quantized to 1/64 um in
        // the high bits, 28 pseudorandom per-edge bits in the low bits.
        // Every value the solver then forms — costs, potentials, path
        // sums — is an integer below 2^53, so double arithmetic is EXACT
        // and the cold and warm solver paths make identical comparisons;
        // and by the isolation lemma the random low bits make the
        // min-cost assignment UNIQUE (w.p. 1 - edges/2^28) — equal-cost
        // optima are exactly where the two paths could legitimately land
        // on different (equally good) assignments, and the attack
        // promises they never do. The quantization (0.016 um) and the
        // tie-break (1/64-um ulp) are both far below any real geometric
        // preference. The solver takes no negative cost, which only a
        // direction_bonus below ~0.3 on diagonal stubs could produce.
        const double base =
            std::clamp(std::round(c.cost * 64.0), 0.0, 4194304.0 /* 2^22 */);
        std::uint64_t state =
            0x9e3779b97f4a7c15ULL ^ (static_cast<std::uint64_t>(refs.size()) + 1);
        const double tie =
            static_cast<double>(util::splitmix64(state) >> 36);  // 28 bits
        const double cost = base * 268435456.0 /* 2^28 */ + tie;
        refs.push_back(
            {flow.add_edge(sink_node(si), drv_node(c.di), 1, cost), si,
             c.di, cost});
      }
    flow.solve(S, T, static_cast<int>(ns));
    auto commit = [&](std::size_t si, std::size_t di) {
      assigned[si] = di;
      const CellId drv =
          feol.net(view.fragments[drv_frag_ids[di]].net).driver;
      for (const auto& s : view.fragments[snk_frag_ids[si]].sinks)
        hyp.add_edge(drv, s.cell);
      ++result.matched;
    };
    auto creates_loop = [&](std::size_t si, std::size_t di) {
      if (!opts.use_loops) return false;
      const CellId drv =
          feol.net(view.fragments[drv_frag_ids[di]].net).driver;
      for (const auto& s : view.fragments[snk_frag_ids[si]].sinks)
        if (hyp.would_loop(drv, s.cell)) return true;
      return false;
    };
    // Loop repair through the solver itself: commit the flow's assignment
    // in ascending (cost, si, di) order; edges that would close a
    // combinational cycle are removed from the network and the flow
    // re-solved — warm by default (only the removed arcs' imbalances
    // re-route, the potentials carry over), or as a cold rebuild of the
    // reduced network when opts.mcmf_warm is off. The perturbed costs
    // make every round's optimum unique, so both paths walk identical
    // rounds and land on the identical assignment (rig-enforced in
    // tests/test_attack.cpp). Rounds are INCREMENTAL: commitments whose
    // assignment the flow kept stay in the hypothesis untouched; only
    // sinks the re-solve moved get uncommitted, re-checked and
    // re-committed — so a round costs O(displaced) loop checks, not
    // O(sinks). Each non-final round removes at least one edge, so the
    // loop terminates.
    std::vector<char> removed(refs.size(), 0);
    std::vector<std::size_t> chosen;
    std::vector<std::size_t> current(ns, static_cast<std::size_t>(-1));
    for (;;) {
      chosen.clear();
      for (std::size_t i = 0; i < refs.size(); ++i)
        if (!removed[i] && flow.flow_on(refs[i].edge) > 0)
          chosen.push_back(i);
      std::sort(chosen.begin(), chosen.end(),
                [&](std::size_t a, std::size_t b) {
                  const EdgeRef& x = refs[a];
                  const EdgeRef& y = refs[b];
                  if (x.cost != y.cost) return x.cost < y.cost;
                  if (x.si != y.si) return x.si < y.si;
                  return x.di < y.di;
                });
      std::fill(current.begin(), current.end(),
                static_cast<std::size_t>(-1));
      for (const std::size_t i : chosen) current[refs[i].si] = refs[i].di;
      // Uncommit the sinks the re-solve moved (or dropped); survivors keep
      // their hypothesis edges so the loop checks below run against
      // exactly the standing commitments.
      for (std::size_t si = 0; si < ns; ++si) {
        if (assigned[si] == static_cast<std::size_t>(-1) ||
            assigned[si] == current[si])
          continue;
        const CellId drv =
            feol.net(view.fragments[drv_frag_ids[assigned[si]]].net).driver;
        for (const auto& s : view.fragments[snk_frag_ids[si]].sinks)
          hyp.remove_edge(drv, s.cell);
        assigned[si] = static_cast<std::size_t>(-1);
      }
      std::vector<std::size_t> bad;
      for (const std::size_t i : chosen) {
        const EdgeRef& r = refs[i];
        if (assigned[r.si] == r.di) continue;  // kept from an earlier round
        if (creates_loop(r.si, r.di)) {
          bad.push_back(i);
          continue;
        }
        assigned[r.si] = r.di;
        const CellId drv =
            feol.net(view.fragments[drv_frag_ids[r.di]].net).driver;
        for (const auto& s : view.fragments[snk_frag_ids[r.si]].sinks)
          hyp.add_edge(drv, s.cell);
      }
      if (bad.empty()) break;  // commits stand
      for (const std::size_t i : bad) removed[i] = 1;
      if (opts.mcmf_warm) {
        for (const std::size_t i : bad) flow.remove_edge(refs[i].edge);
        flow.resolve();
      } else {
        flow = MinCostFlow(2 + static_cast<int>(ns + nd));
        for (std::size_t si = 0; si < ns; ++si)
          flow.add_edge(S, sink_node(si), 1, 0);
        for (std::size_t di = 0; di < nd; ++di)
          flow.add_edge(drv_node(di), T, drv_capacity[di], 0);
        for (std::size_t i = 0; i < refs.size(); ++i)
          if (!removed[i])
            refs[i].edge = flow.add_edge(sink_node(refs[i].si),
                                         drv_node(refs[i].di), 1,
                                         refs[i].cost);
        flow.solve(S, T, static_cast<int>(ns));
      }
    }
    for (std::size_t si = 0; si < ns; ++si)
      if (assigned[si] != static_cast<std::size_t>(-1)) ++result.matched;
    // Loop/completion repair, stage 1: walk each unassigned sink's cached
    // candidate list — it already holds the k cheapest drivers in commit
    // order, so no pair_cost is recomputed here.
    std::vector<std::size_t> exhausted;
    for (std::size_t si = 0; si < ns; ++si) {
      if (assigned[si] != static_cast<std::size_t>(-1)) continue;
      bool done = false;
      for (const auto& c : per_sink[si]) {
        if (creates_loop(si, c.di)) continue;
        commit(si, c.di);
        done = true;
        break;
      }
      if (!done) exhausted.push_back(si);
    }
    // Stage 2 (rare): sinks whose every cached candidate closes a loop get
    // the full cost ranking, committed in sink order.
    for (const std::size_t si : exhausted)
      for (const auto& c : finder.ranking(view.fragments[snk_frag_ids[si]])) {
        if (creates_loop(si, c.di)) continue;
        commit(si, c.di);
        break;
      }
  }

  // Build the recovered netlist and score it.
  Netlist recovered = feol.clone();
  std::map<std::pair<CellId, int>, NetId> truth;
  if (ledger != nullptr)
    for (const auto& [net, sink] : ledger->true_connections())
      truth[{sink.cell, sink.pin}] = net;

  for (std::size_t si = 0; si < ns; ++si) {
    const Fragment& sf = view.fragments[snk_frag_ids[si]];
    const std::size_t di = assigned[si];
    for (const auto& s : sf.sinks) {
      ++result.open_sinks;
      const NetId true_net =
          original.cell(s.cell).inputs.at(static_cast<std::size_t>(s.pin));
      NetId guess = netlist::kInvalidNet;
      if (di != static_cast<std::size_t>(-1)) {
        guess = view.fragments[drv_frag_ids[di]].net;
        recovered.reconnect_sink(s.cell, s.pin, guess);
      }
      if (guess == true_net) ++result.correct;
      const auto it = truth.find({s.cell, s.pin});
      if (it != truth.end()) {
        ++result.protected_total;
        if (guess == it->second) ++result.protected_correct;
      }
    }
  }
  // Protected connections fully visible in the FEOL are "recovered" as the
  // erroneous wiring — count them (they score as correct only if the
  // erroneous connection happens to equal the original one, which swaps
  // preclude).
  for (const auto& [key, true_net] : truth) {
    if (pin_open(key.first, key.second)) continue;
    const NetId visible = feol.cell(key.first).inputs.at(
        static_cast<std::size_t>(key.second));
    ++result.protected_total;
    if (visible == true_net) ++result.protected_correct;
  }

  recovered.validate();
  if (netlist::is_acyclic(recovered)) {
    result.rates =
        sim::compare(original, recovered, opts.eval_patterns, opts.seed);
  } else {
    // Should not happen with loop checks on; report total failure honestly.
    result.rates.oer = 1.0;
    result.rates.hd = 0.5;
    result.rates.patterns = 0;
  }
  if (opts.keep_recovered) result.recovered.emplace(std::move(recovered));
  return result;
}

}  // namespace sm::attack
