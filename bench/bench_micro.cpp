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

#include <limits>
#include <utility>

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

// BM_CompareOerHd pins lanes=1 (the pre-ISSUE-10 scalar word path) so the
// rig stays comparable across releases; the *Lanes variants below sweep the
// wide-word widths. OER/HD are bit-identical for every lane width
// (tests/test_sim.cpp) — only the wall time moves.
void BM_CompareOerHd(benchmark::State& state) {
  const auto nl = make_bench("c880");
  for (auto _ : state) {
    const auto r = sim::compare(nl, nl, 4096, 3, 1);
    benchmark::DoNotOptimize(r);
  }
}

// Arg = lane width (uint64 words evaluated per gate visit).
void BM_CompareOerHdLanes(benchmark::State& state) {
  const auto nl = make_bench("c880");
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto r = sim::compare(nl, nl, 4096, 3, lanes);
    benchmark::DoNotOptimize(r);
  }
}

// Sim throughput (patterns/second) of the compare path: Arg = lane width.
void BM_CompareThroughputLanes(benchmark::State& state) {
  const auto nl = make_bench("c2670");
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPatterns = 65536;
  for (auto _ : state) {
    const auto r = sim::compare(nl, nl, kPatterns, 3, lanes);
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

void attack_candidates(benchmark::State& state, int index_min_drivers,
                       bool mcmf_warm = true) {
  const auto& rig = AttackRig::instance();
  attack::ProximityOptions opts;
  opts.eval_patterns = 64;
  opts.index_min_drivers = index_min_drivers;
  opts.mcmf_warm = mcmf_warm;
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

// The ISSUE-10 comparison rig: the identical attack with the per-round
// cold rebuild instead of the live warm-started solver. Metrics are
// bit-identical to BM_AttackCandidatesIndexed (tests/test_attack.cpp
// WarmColdRig.C7552) — only the matcher's wall time moves.
void BM_AttackCandidatesColdMcmf(benchmark::State& state) {
  attack_candidates(state, 0, /*mcmf_warm=*/false);
}

// ---- MCMF solver rigs ----
// A random assignment-shaped network mirroring the attack's loop-repair
// instances: S → sinks (cap 1, cost 0), sink → candidate drivers (cap 1,
// integer-exact costs per the warm-start contract), drivers → T (small
// caps). BM_McmfSolveCold prices the cold path's per-round rebuild;
// BM_McmfRepairWarm prices one warm repair round (a handful of candidate
// arcs removed, then resolve() reuses the surviving flow and potentials).
constexpr int kMcmfSinks = 256;
constexpr int kMcmfDrivers = 300;
constexpr int kMcmfCandidates = 8;

struct McmfNet {
  attack::MinCostFlow flow{2 + kMcmfSinks + kMcmfDrivers};
  // The sink→driver edge ids — the ones loop repair removes.
  std::vector<int> sink_edges;
  int s = 0;
  int t = 1;
};

McmfNet mcmf_build() {
  McmfNet net;
  const auto sink_node = [](int si) { return 2 + si; };
  const auto drv_node = [](int di) { return 2 + kMcmfSinks + di; };
  util::Rng rng(23);
  for (int si = 0; si < kMcmfSinks; ++si)
    net.flow.add_edge(net.s, sink_node(si), 1, 0.0);
  for (int di = 0; di < kMcmfDrivers; ++di)
    net.flow.add_edge(drv_node(di), net.t,
                      static_cast<int>(rng.range(1, 3)), 0.0);
  for (int si = 0; si < kMcmfSinks; ++si)
    for (int c = 0; c < kMcmfCandidates; ++c) {
      const int di = static_cast<int>(rng.below(kMcmfDrivers));
      const double cost =
          static_cast<double>(rng.below(1u << 20)) * 268435456.0 +
          static_cast<double>(rng.below(1u << 28));
      net.sink_edges.push_back(
          net.flow.add_edge(sink_node(si), drv_node(di), 1, cost));
    }
  return net;
}

void BM_McmfSolveCold(benchmark::State& state) {
  for (auto _ : state) {
    auto net = mcmf_build();
    net.flow.solve(net.s, net.t, kMcmfSinks);
    benchmark::DoNotOptimize(net.flow.cost());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_McmfRepairWarm(benchmark::State& state) {
  auto net = mcmf_build();
  net.flow.solve(net.s, net.t, kMcmfSinks);
  constexpr int kRemovals = 8;  // ~ one loop-repair round's removals
  std::size_t cursor = 0;
  for (auto _ : state) {
    // Each iteration repairs a fresh copy of the solved network, made
    // outside the timer, after removing the next window of candidate arcs.
    state.PauseTiming();
    auto flow = net.flow;
    state.ResumeTiming();
    for (int k = 0; k < kRemovals; ++k) {
      flow.remove_edge(net.sink_edges[cursor]);
      cursor = (cursor + 1) % net.sink_edges.size();
    }
    flow.resolve();
    benchmark::DoNotOptimize(flow.cost());
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
BENCHMARK(BM_CompareOerHdLanes)->Arg(1)->Arg(4)->Arg(8);
BENCHMARK(BM_CompareThroughputLanes)->Arg(1)->Arg(4)->Arg(8);
BENCHMARK(BM_Randomize);
BENCHMARK(BM_Place);
BENCHMARK(BM_Route);
BENCHMARK(BM_RouteNets)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProximityAttack);
BENCHMARK(BM_AttackCandidatesBrute)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AttackCandidatesIndexed)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AttackCandidatesColdMcmf)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_McmfSolveCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_McmfRepairWarm)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GridIndexKNearest)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
