// Shared plumbing for the paper table/figure benches.
//
// Every bench accepts:
//   --seed=<n>      master seed (default 1)
//   --benchmarks=a,b,c   explicit benchmark subset (empty entries skipped,
//                        so a trailing comma is harmless)
//
// and names the further flags it reads to parse_suite; any other flag
// fails. Those extras are, per bench:
//   --scale=<f>     superblue clone scale (default 0.01 of published size):
//                   bench_superblue_layouts, Tables 4 and 5
//   --patterns=<n>  simulation patterns for OER/HD (default 100000; the
//                   paper uses 1,000,000 — pass --patterns=1000000 to
//                   match, at ~10x the runtime): Tables 4 and 5 and the
//                   three ablations
//   --quick         clip benchmark lists for smoke runs: every bench but
//                   bench_ablation_liftlayer and bench_ablation_buffering
//   --jobs=<n>      worker threads (default 1; 0 = hardware concurrency):
//                   bench_superblue_layouts, Tables 4 and 5. Results are
//                   bit-identical for any value — benches compute into
//                   index-addressed slots (bench_superblue_layouts) or
//                   grid rows (Tables 4 and 5) and render afterwards.
//
// Flows come from sweep::task_flow / sweep::task_randomize, the recipe the
// sweep grid, sm_flow and the quickstart example use too. The split-layer
// ablation has no bench: it is one `sm_flow sweep` call (docs/CLI.md,
// "Recipes").
#pragma once

#include "core/baselines.hpp"
#include "core/protect.hpp"
#include "core/split.hpp"
#include "sweep/sweep.hpp"
#include "util/args.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/generator.hpp"

#include <cstdio>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

namespace sm::bench {

struct SuiteOptions {
  double scale = 0.01;
  std::uint64_t seed = 1;
  std::size_t patterns = 100000;
  bool quick = false;
  std::size_t jobs = 1;  ///< worker threads; 0 = hardware concurrency
  std::vector<std::string> only;  ///< benchmark filter (empty = all)
};

/// Parse the flags every bench shares plus `extra`, the further flags the
/// bench reads. Throws std::invalid_argument on any other flag, so a flag
/// the bench would not read fails instead of being ignored; a field whose
/// flag is not accepted keeps its default.
inline SuiteOptions parse_suite(int argc, const char* const* argv,
                                std::initializer_list<const char*> extra = {}) {
  util::Args args(argc, argv);
  std::vector<std::string> known{"seed", "benchmarks"};
  known.insert(known.end(), extra.begin(), extra.end());
  args.reject_unknown(known);
  SuiteOptions s;
  s.scale = args.get_double("scale", s.scale);
  s.seed = args.get_count("seed", 1);
  s.patterns = args.get_count("patterns", s.patterns);
  if (s.patterns == 0)
    throw std::invalid_argument("bench: --patterns must be >= 1");
  s.quick = args.get_bool("quick", false);
  s.jobs = args.get_count("jobs", 1);
  s.only = util::split_list(args.get("benchmarks", ""));
  return s;
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

inline void print_header(const char* what) {
  std::printf("\n==== %s ====\n", what);
  std::printf(
      "(synthetic benchmark clones; expect the paper's *shape*, not its "
      "absolute numbers — see the workloads section of "
      "docs/ARCHITECTURE.md)\n\n");
}

}  // namespace sm::bench
