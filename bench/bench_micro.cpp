// Micro-benchmarks (google-benchmark): throughput of the substrate pieces —
// bit-parallel simulation, randomization, FM placement, maze routing, the
// proximity attack. Useful for tracking performance regressions; not part
// of the paper's evaluation.
#include "attack/mcmf.hpp"
#include "attack/proximity.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "sim/simulator.hpp"
#include "util/grid_index.hpp"
#include "util/rng.hpp"
#include "workloads/generator.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace sm;

const netlist::CellLibrary& lib() {
  static netlist::CellLibrary instance{6};
  return instance;
}

netlist::Netlist make_bench(const char* name) {
  return workloads::generate(lib(), workloads::iscas85_profile(name), 7);
}

void BM_Simulation64Patterns(benchmark::State& state) {
  const auto nl = make_bench("c2670");
  sim::Simulator s(nl);
  std::vector<std::uint64_t> in(s.num_sources(), 0x123456789abcdefULL), out;
  for (auto _ : state) {
    s.eval(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void BM_CompareOerHd(benchmark::State& state) {
  const auto nl = make_bench("c880");
  for (auto _ : state) {
    const auto r = sim::compare(nl, nl, 4096, 3);
    benchmark::DoNotOptimize(r);
  }
}

// Sim throughput (patterns/second) of the compare path.
void BM_CompareThroughput(benchmark::State& state) {
  const auto nl = make_bench("c2670");
  constexpr std::size_t kPatterns = 65536;
  for (auto _ : state) {
    const auto r = sim::compare(nl, nl, kPatterns, 3);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kPatterns));
}

void BM_Randomize(benchmark::State& state) {
  const auto nl = make_bench("c880");
  core::RandomizeOptions opts;
  opts.check_patterns = 1024;
  for (auto _ : state) {
    const auto r = core::randomize(nl, opts);
    benchmark::DoNotOptimize(r.swaps);
  }
}

void BM_Place(benchmark::State& state) {
  const auto nl = make_bench("c880");
  place::Placer placer;
  for (auto _ : state) {
    const auto pl = placer.place(nl);
    benchmark::DoNotOptimize(pl.pos.size());
  }
}

/// Exports one route() call's A* work. The counts are deterministic, so
/// they tell a change in work from a change in speed.
void set_route_counters(benchmark::State& state, const route::RoutingStats& s) {
  state.counters["searches"] = static_cast<double>(s.searches);
  state.counters["heap_pops"] = static_cast<double>(s.heap_pops);
  state.counters["heap_pushes"] = static_cast<double>(s.heap_pushes);
}

void BM_Route(benchmark::State& state) {
  const auto nl = make_bench("c880");
  place::Placer placer;
  const auto pl = placer.place(nl);
  const auto tasks = route::make_tasks(nl, pl);
  route::RouterOptions opts;
  opts.gcell_um = 1.4;
  route::Router router(opts);
  route::RoutingStats stats;
  for (auto _ : state) {
    const auto r = router.route(tasks, pl.floorplan.die, lib().metal());
    benchmark::DoNotOptimize(r.stats.total_vias());
    stats = r.stats;
  }
  set_route_counters(state, stats);
}

// Router throughput on a full placed netlist (c2670). The fine gcell and
// extra passes make negotiation do real rip-up work.
struct RouteRig {
  netlist::Netlist nl;
  place::Placement pl;
  std::vector<route::RouteTask> tasks;

  static const RouteRig& instance() {
    static RouteRig rig = [] {
      auto nl = make_bench("c2670");
      place::Placer placer;
      auto pl = placer.place(nl);
      auto tasks = route::make_tasks(nl, pl);
      return RouteRig{std::move(nl), std::move(pl), std::move(tasks)};
    }();
    return rig;
  }
};

void BM_RouteNets(benchmark::State& state) {
  const auto& rig = RouteRig::instance();
  route::RouterOptions opts;
  opts.gcell_um = 1.4;
  opts.passes = 4;
  route::Router router(opts);
  route::RoutingStats stats;
  for (auto _ : state) {
    const auto r = router.route(rig.tasks, rig.pl.floorplan.die, lib().metal());
    benchmark::DoNotOptimize(r.stats.total_vias());
    stats = r.stats;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rig.tasks.size()));
  set_route_counters(state, stats);
  // The rip-up passes' share of the work: pass1_pops, pass2_pops, ...
  for (std::size_t p = 1; p < stats.passes.size(); ++p)
    state.counters["pass" + std::to_string(p) + "_pops"] =
        static_cast<double>(stats.passes[p].heap_pops);
}

void BM_ProximityAttack(benchmark::State& state) {
  const auto nl = make_bench("c880");
  core::FlowOptions flow;
  flow.router.passes = 2;
  const auto layout = core::layout_original(nl, flow);
  const auto view = core::split_layout(nl, layout.placement, layout.routing,
                                       layout.tasks, layout.num_net_tasks, 3);
  attack::ProximityOptions opts;
  opts.eval_patterns = 1024;
  for (auto _ : state) {
    const auto res = attack::proximity_attack(nl, nl, layout.placement, view,
                                              nullptr, opts);
    benchmark::DoNotOptimize(res.correct);
  }
}

// Candidate-generation cost of the proximity attack: the same split view
// attacked with the spatial index forced on (threshold 0) vs forced off
// (threshold INT_MAX -> brute-force all-pairs pair_cost). eval_patterns is
// tiny so the matcher dominates; both variants produce identical metrics.
struct AttackRig {
  netlist::Netlist nl;
  core::LayoutResult layout;
  core::SplitView view;

  static const AttackRig& instance() {
    static AttackRig rig = [] {
      core::FlowOptions flow;
      flow.router.passes = 2;
      auto nl = make_bench("c7552");
      auto layout = core::layout_original(nl, flow);
      auto view = core::split_layout(nl, layout.placement, layout.routing,
                                     layout.tasks, layout.num_net_tasks, 3);
      return AttackRig{std::move(nl), std::move(layout), std::move(view)};
    }();
    return rig;
  }
};

void attack_candidates(benchmark::State& state, int index_min_drivers) {
  const auto& rig = AttackRig::instance();
  attack::ProximityOptions opts;
  opts.eval_patterns = 64;
  opts.index_min_drivers = index_min_drivers;
  for (auto _ : state) {
    const auto res = attack::proximity_attack(
        rig.nl, rig.nl, rig.layout.placement, rig.view, nullptr, opts);
    benchmark::DoNotOptimize(res.correct);
  }
}

void BM_AttackCandidatesBrute(benchmark::State& state) {
  attack_candidates(state, std::numeric_limits<int>::max());
}

void BM_AttackCandidatesIndexed(benchmark::State& state) {
  attack_candidates(state, 0);
}

// The FEOL cut of the attack rig's c7552 layout at each split layer the
// sweep attacks. The fragment and vpin counts are deterministic, like the
// router's A* counters.
void BM_SplitLayout(benchmark::State& state) {
  const auto& rig = AttackRig::instance();
  std::size_t fragments = 0, vpins = 0;
  for (auto _ : state) {
    fragments = vpins = 0;
    for (const int split : {3, 4, 5}) {
      const auto view = core::split_layout(
          rig.nl, rig.layout.placement, rig.layout.routing, rig.layout.tasks,
          rig.layout.num_net_tasks, split);
      fragments += view.fragments.size();
      vpins += view.num_vpins();
    }
    benchmark::DoNotOptimize(fragments);
  }
  state.counters["fragments"] = static_cast<double>(fragments);
  state.counters["vpins"] = static_cast<double>(vpins);
}

// ---- Matching solver rig ----
// A random attack-shaped network: 256 sinks with 8 candidate drivers each
// among 300 (integer costs in the attack's form: a base in the high bits,
// 28 tie-break bits in the low bits), drivers with room for 1-3 sinks.
// Each iteration is one cold solve, as a loop-repair round makes.
void BM_McmfSolveCold(benchmark::State& state) {
  constexpr int kSinks = 256;
  constexpr int kDrivers = 300;
  constexpr int kCandidates = 8;
  util::Rng rng(23);
  std::vector<int> capacity(kDrivers);
  for (int& c : capacity) c = static_cast<int>(rng.range(1, 3));
  std::vector<attack::Candidate> candidates;
  for (int si = 0; si < kSinks; ++si)
    for (int c = 0; c < kCandidates; ++c) {
      const int di = static_cast<int>(rng.below(kDrivers));
      const auto base = static_cast<std::int64_t>(rng.below(1u << 20));
      const auto tie = static_cast<std::int64_t>(rng.below(1u << 28));
      candidates.push_back({si, di, (base << 28) + tie});
    }
  for (auto _ : state) {
    const auto match =
        attack::min_cost_matching(kSinks, capacity, candidates);
    benchmark::DoNotOptimize(match.data());
  }
  state.SetItemsProcessed(state.iterations());
}

// Raw expanding-ring query throughput against a brute-force linear scan on
// the same uniformly random point set.
void BM_GridIndexKNearest(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  std::vector<util::Point> pts(n);
  for (auto& p : pts) p = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
  const util::GridIndex index(pts);
  std::size_t q = 0;
  for (auto _ : state) {
    const auto nn = index.k_nearest(pts[q++ % n], 16);
    benchmark::DoNotOptimize(nn);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_Simulation64Patterns);
BENCHMARK(BM_CompareOerHd);
BENCHMARK(BM_CompareThroughput);
BENCHMARK(BM_Randomize);
BENCHMARK(BM_Place);
BENCHMARK(BM_Route);
BENCHMARK(BM_RouteNets)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProximityAttack);
BENCHMARK(BM_AttackCandidatesBrute)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AttackCandidatesIndexed)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SplitLayout)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_McmfSolveCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GridIndexKNearest)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
