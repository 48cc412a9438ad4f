#include "cli/flow_common.hpp"

#include "netlist/tech.hpp"
#include "sweep/sweep.hpp"

#include <climits>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace sm::cli {
namespace {

/// `--key` as a whole count in [lo, hi], range-checked before it narrows to
/// int, so 2^32 + 3 cannot wrap to 3.
int get_int_in(const util::Args& args, const std::string& key, int fallback,
               int lo, int hi) {
  const std::size_t v =
      args.get_count(key, static_cast<std::size_t>(fallback));
  if (v < static_cast<std::size_t>(lo) || v > static_cast<std::size_t>(hi))
    throw std::invalid_argument("--" + key + ": expected " +
                                std::to_string(lo) + "-" + std::to_string(hi) +
                                ", got " + std::to_string(v));
  return static_cast<int>(v);
}

}  // namespace

FlowSetup parse_setup(const util::Args& args,
                      std::initializer_list<const char*> extra) {
  std::vector<std::string> known{"bench", "scale", "seed", "split-layer",
                                 "patterns", "lift-layer", "buffering",
                                 "route-passes", "detailed-passes",
                                 "target-oer"};
  known.insert(known.end(), extra.begin(), extra.end());
  args.reject_unknown(known);
  FlowSetup s;
  s.bench = args.get("bench", s.bench);
  s.scale = args.get_double("scale", s.scale);
  s.seed = args.get_count("seed", 1);
  // A split after the top layer would leave no BEOL to hide anything in.
  constexpr int kLayers = netlist::MetalStack::kNumLayers;
  s.split_layer = get_int_in(args, "split-layer", s.split_layer, 1,
                             kLayers - 1);
  s.patterns = parse_patterns(args, s.patterns);

  // The sweep's flow recipe, with this run's flags on top.
  const sweep::Workload workload = sweep::workload_of(s.bench);
  s.spec = sweep::task_spec(s.bench, workload, s.scale);
  s.flow = sweep::task_flow(s.bench, workload, s.seed, s.scale);
  s.flow.lift_layer =
      get_int_in(args, "lift-layer", s.flow.lift_layer, 1, kLayers);
  s.flow.buffering = args.get_bool("buffering", false);

  // Layout-engine knobs, strictly validated like the sweep's numeric flags.
  s.flow.router.passes =
      get_int_in(args, "route-passes", s.flow.router.passes, 1, INT_MAX);
  s.flow.placer.detailed_passes = get_int_in(
      args, "detailed-passes", s.flow.placer.detailed_passes, 0, INT_MAX);

  s.rand_opts = sweep::task_randomize(s.seed);
  s.rand_opts.target_oer =
      args.get_double("target-oer", s.rand_opts.target_oer);
  return s;
}

std::size_t parse_patterns(const util::Args& args, std::size_t fallback) {
  const std::size_t patterns = args.get_count("patterns", fallback);
  if (patterns == 0) throw std::invalid_argument("--patterns must be >= 1");
  return patterns;
}

netlist::Netlist make_netlist(const netlist::CellLibrary& lib,
                              const FlowSetup& setup) {
  return workloads::generate(lib, setup.spec, setup.seed);
}

core::ProtectedDesign run_protect(const netlist::Netlist& nl,
                                  const FlowSetup& setup) {
  return core::protect(nl, setup.rand_opts, setup.flow);
}

core::SplitView run_split(const netlist::Netlist& physical,
                          const core::LayoutResult& layout,
                          const FlowSetup& setup) {
  return core::split_layout(physical, layout.placement, layout.routing,
                            layout.tasks, layout.num_net_tasks,
                            setup.split_layer);
}

bool write_output(const std::string& path, const std::string& text) {
  if (path.empty() || path == "-") {
    std::cout << text;
    return static_cast<bool>(std::cout);
  }
  std::ofstream os(path);
  os << text;
  if (!os) {
    std::cerr << "sm_flow: cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace sm::cli
