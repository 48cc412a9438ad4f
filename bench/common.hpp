// Shared plumbing for the per-table/figure bench harnesses.
//
// Every bench accepts:
//   --scale=<f>     superblue clone scale (default 0.01 of published size)
//   --seed=<n>      master seed (default 1)
//   --patterns=<n>  simulation patterns for OER/HD (default 100000;
//                   the paper uses 1,000,000 — pass --patterns=1000000 to
//                   match, at ~10x the runtime)
//   --quick         clip benchmark lists for smoke runs
//   --benchmarks=a,b,c   explicit benchmark subset (empty entries skipped,
//                        so a trailing comma is harmless)
//   --jobs=<n>      worker threads for the per-benchmark loop (default 1;
//                   0 = hardware concurrency). Results are bit-identical
//                   for any value — benches compute into index-addressed
//                   slots and render tables in benchmark order afterwards.
//   --attack-jobs=<n>  worker threads *inside* each proximity attack
//                   (candidate generation + OER/HD simulation blocks);
//                   default 1. Also bit-identical for any value. Prefer
//                   --jobs when sweeping many benchmarks and --attack-jobs
//                   when drilling into one large instance — combining both
//                   oversubscribes the machine.
//   --route-jobs=<n>   worker threads inside each router run (negotiation
//                   rounds shard their net re-routes); default 1, routes
//                   bit-identical for any value. Same stacking caveat as
//                   --attack-jobs.
//   --route-passes=<n>   router rip-up-and-reroute rounds (default: the
//                   suite tuning, currently 3)
//   --route-partition=tree|rounds   router re-route scheduler: the spatial
//                   partition tree with live in-region congestion (default)
//                   or the legacy snapshot-commit rounds (changes which
//                   layout is produced; each is deterministic on its own)
//   --partition-depth=<n>   tree depth where the router's parallel tasks
//                   fan out (default auto; pure scheduling — layouts are
//                   bit-identical for every value)
//   --detailed-passes=<n>  placer greedy-swap refinement sweeps (default:
//                   the per-suite tuning, 2 ISCAS / 1 superblue)
//
//   The three layout-engine flags are applied via apply_layout_flags(),
//   currently wired into the table 1/4/5 benches — the remaining benches
//   parse but ignore them (like --jobs on the serial benches; see
//   docs/CLI.md for the wiring status).
#pragma once

#include "core/baselines.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workloads/generator.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace sm::bench {

struct SuiteOptions {
  double scale = 0.01;
  std::uint64_t seed = 1;
  std::size_t patterns = 100000;
  bool quick = false;
  std::size_t jobs = 1;         ///< threads for the benchmark loop; 0 = hw
  std::size_t attack_jobs = 1;  ///< threads inside each proximity attack
  std::size_t route_jobs = 1;   ///< threads inside each router run
  std::size_t route_passes = 0; ///< router negotiation rounds; 0 = suite default
  route::RoutePartition route_partition =
      route::RoutePartition::Tree;  ///< re-route scheduler
  int partition_depth = -1;     ///< tree fan-out depth; -1 = auto
  int detailed_passes = -1;     ///< placer refinement sweeps; -1 = suite default
  std::vector<std::string> only;  ///< benchmark filter (empty = all)
};

inline SuiteOptions parse_suite(int argc, const char* const* argv) {
  util::Args args(argc, argv);
  SuiteOptions s;
  s.scale = args.get_double("scale", s.scale);
  s.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  s.patterns = static_cast<std::size_t>(
      args.get_int("patterns", static_cast<std::int64_t>(s.patterns)));
  s.quick = args.get_bool("quick", false);
  s.jobs = args.get_count("jobs", 1);
  s.attack_jobs = args.get_count("attack-jobs", 1);
  s.route_jobs = args.get_count("route-jobs", 1);
  if (args.has("route-passes")) {
    s.route_passes = args.get_count("route-passes", 0);
    if (s.route_passes == 0)
      throw std::invalid_argument("bench: --route-passes must be >= 1");
  }
  if (args.has("route-partition"))
    s.route_partition =
        route::route_partition_from_string(args.get("route-partition", ""));
  if (args.has("partition-depth"))
    s.partition_depth =
        static_cast<int>(args.get_count("partition-depth", 0));
  if (args.has("detailed-passes"))
    s.detailed_passes =
        static_cast<int>(args.get_count("detailed-passes", 0));
  s.only = util::split_list(args.get("benchmarks", ""));
  return s;
}

/// Apply the layout-engine flags (--route-passes / --route-jobs /
/// --detailed-passes) on top of a suite's tuned FlowOptions. Unset flags
/// keep the suite tuning (sentinels 0 / -1), so retuning a suite default
/// can never be silently undone by a flag nobody passed.
inline core::FlowOptions apply_layout_flags(core::FlowOptions f,
                                            const SuiteOptions& s) {
  if (s.route_passes > 0) f.router.passes = static_cast<int>(s.route_passes);
  f.router.jobs = s.route_jobs;
  f.router.partition = s.route_partition;
  f.router.partition_depth = s.partition_depth;
  if (s.detailed_passes >= 0) f.placer.detailed_passes = s.detailed_passes;
  return f;
}

/// Run body(i) for every picked benchmark index over suite.jobs threads.
/// body must write only into its own index's slot of a pre-sized results
/// vector; the caller renders rows in index order after this returns, which
/// keeps the printed tables bit-identical for any --jobs value.
inline void for_each_benchmark(const std::vector<std::string>& names,
                               const SuiteOptions& s,
                               const std::function<void(std::size_t)>& body) {
  util::parallel_for(s.jobs, names.size(), body);
}

inline std::vector<std::string> pick(const std::vector<std::string>& all,
                                     const SuiteOptions& s,
                                     std::size_t quick_count = 2) {
  if (!s.only.empty()) return s.only;
  if (s.quick)
    return {all.begin(),
            all.begin() + static_cast<std::ptrdiff_t>(
                              std::min(quick_count, all.size()))};
  return all;
}

/// Flow options for ISCAS-85 runs: correction pins in M6 (paper Sec. 5.1).
inline core::FlowOptions iscas_flow(std::uint64_t seed) {
  core::FlowOptions f;
  f.lift_layer = 6;
  f.seed = seed;
  f.router.passes = 3;
  f.placer.seed = seed;
  f.placer.target_utilization = 0.45;  // congestion-free at our router
  f.placer.detailed_passes = 2;
  return f;
}

/// Flow options for superblue runs: correction pins in M8 (paper Sec. 5.1).
/// The published utilizations are derated x0.5 so the substrate router stays
/// congestion-free, mirroring the paper's "appropriate utilization rates".
inline core::FlowOptions superblue_flow(std::uint64_t seed,
                                        const workloads::GenSpec& spec) {
  core::FlowOptions f;
  f.lift_layer = 8;
  f.seed = seed;
  f.router.passes = 3;
  f.placer.seed = seed;
  f.placer.target_utilization = spec.utilization * 0.5;
  f.placer.detailed_passes = 1;
  return f;
}

inline core::RandomizeOptions default_randomize(std::uint64_t seed) {
  core::RandomizeOptions r;
  r.seed = seed;
  r.target_oer = 0.995;
  r.check_patterns = 4096;
  return r;
}

inline void print_header(const char* what) {
  std::printf("\n==== %s ====\n", what);
  std::printf(
      "(synthetic benchmark clones; expect the paper's *shape*, not its "
      "absolute numbers — see the workloads section of "
      "docs/ARCHITECTURE.md)\n\n");
}

}  // namespace sm::bench
