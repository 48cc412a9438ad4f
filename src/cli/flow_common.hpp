// Shared plumbing of the sm_flow subcommands: benchmark selection, flow
// option parsing, and the protect-run cache each stage builds on. The whole
// pipeline is deterministic in (bench, scale, seed), so subcommands simply
// recompute the stages they need instead of serializing intermediate state.
#pragma once

#include "core/protect.hpp"
#include "core/split.hpp"
#include "netlist/netlist.hpp"
#include "util/args.hpp"
#include "workloads/generator.hpp"

#include <cstdint>
#include <initializer_list>
#include <string>

namespace sm::cli {

/// Options every subcommand understands (parsed from util::Args).
struct FlowSetup {
  std::string bench = "c880";
  double scale = 0.02;        ///< superblue clone scale
  std::uint64_t seed = 1;
  int split_layer = 4;
  std::size_t patterns = 100000;  ///< simulation patterns for OER/HD
  workloads::GenSpec spec;
  core::FlowOptions flow;
  core::RandomizeOptions rand_opts;
};

/// Parse the common options and resolve the benchmark profile. `extra`
/// lists the command's own flags; any flag outside the common ones and
/// `extra` throws std::invalid_argument, so a flag the command would not
/// read fails instead of being ignored. So do unknown benchmark names and
/// malformed numbers.
FlowSetup parse_setup(const util::Args& args,
                      std::initializer_list<const char*> extra);

/// --patterns, strictly parsed and at least 1: zero patterns would report
/// OER/HD 0% without simulating anything.
std::size_t parse_patterns(const util::Args& args, std::size_t fallback);

/// Generate the benchmark netlist for a setup.
netlist::Netlist make_netlist(const netlist::CellLibrary& lib,
                              const FlowSetup& setup);

/// Run the paper's protection flow for a setup.
core::ProtectedDesign run_protect(const netlist::Netlist& nl,
                                  const FlowSetup& setup);

/// FEOL view of a layout after the split cut.
core::SplitView run_split(const netlist::Netlist& physical,
                          const core::LayoutResult& layout,
                          const FlowSetup& setup);

/// Write `text` to `path` ("-" or "" = stdout). Returns false on I/O error.
bool write_output(const std::string& path, const std::string& text);

}  // namespace sm::cli
