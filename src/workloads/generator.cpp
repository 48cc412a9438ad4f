#include "workloads/generator.hpp"

#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace sm::workloads {

using netlist::CellId;
using netlist::CellLibrary;
using netlist::CellTypeId;
using netlist::NetId;
using netlist::Netlist;

Netlist generate(const CellLibrary& lib, const GenSpec& spec,
                 std::uint64_t seed) {
  if (spec.num_pi < 1 || spec.num_po < 1 || spec.num_gates < 1)
    throw std::invalid_argument("generate: spec must have >=1 PI/PO/gate");
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Netlist nl(lib, spec.name);

  // All nets created so far, in creation order (drives locality selection).
  std::vector<NetId> pool;
  pool.reserve(static_cast<std::size_t>(spec.num_pi + spec.num_gates));
  // Remaining fanout budget per pool entry; nets with budget left are
  // preferred so every net ends up with at least one sink.
  std::deque<std::size_t> starving;  // pool indices with zero sinks so far
  std::vector<int> sink_count;

  auto push_net = [&](NetId n) {
    starving.push_back(pool.size());
    pool.push_back(n);
    sink_count.push_back(0);
  };

  for (int i = 0; i < spec.num_pi; ++i)
    push_net(nl.add_primary_input("pi" + std::to_string(i)));

  // Gate-type mix. Random AND/OR-heavy DAGs saturate signal probabilities
  // toward 0/1, which makes deep outputs nearly constant and blocks error
  // propagation — the opposite of real ISCAS-85 circuits (adders,
  // multipliers, ALUs are XOR/MUX-rich). Weight probability-preserving gates
  // heavily so random stimuli keep ~0.5 signal probability at depth, the
  // property both the OER-driven randomizer and the HD metric rely on.
  std::vector<CellTypeId> gates;
  const auto add_weighted = [&](const char* type_name, int weight) {
    const CellTypeId id = lib.id_of(type_name);
    for (int i = 0; i < weight; ++i) gates.push_back(id);
  };
  add_weighted("XOR2_X1", 8);
  add_weighted("XNOR2_X1", 8);
  add_weighted("MUX2_X1", 4);
  add_weighted("INV_X1", 3);
  add_weighted("NAND2_X1", 2);
  add_weighted("NOR2_X1", 2);
  add_weighted("AND2_X1", 1);
  add_weighted("OR2_X1", 1);
  add_weighted("NAND3_X1", 1);
  add_weighted("NOR3_X1", 1);
  add_weighted("AOI21_X1", 1);
  add_weighted("OAI21_X1", 1);
  add_weighted("NAND4_X1", 1);
  const int num_dff = static_cast<int>(
      std::lround(spec.dff_fraction * spec.num_gates));

  // Choose an input net for the gate being created at pool position `end`.
  auto pick_input = [&](std::size_t end) -> std::size_t {
    // Drain nets that still have no sink (guarantees connectivity). Mostly
    // from the back — the *recent* sinkless nets — so drained connections
    // stay local; a small front-drain retires stragglers.
    while (!starving.empty() && starving.front() >= end) starving.pop_back();
    if (!starving.empty() && rng.chance(0.6)) {
      if (rng.chance(0.85)) {
        const std::size_t idx = starving.back();
        starving.pop_back();
        return idx;
      }
      const std::size_t idx = starving.front();
      starving.pop_front();
      return idx;
    }
    // Two-scale window: mostly very recent nets (adjacent-gate locality),
    // occasionally the full window (global nets).
    const int w = rng.chance(spec.short_bias)
                      ? std::min(spec.short_window, spec.locality_window)
                      : spec.locality_window;
    const std::size_t window = std::min<std::size_t>(
        std::max<std::size_t>(static_cast<std::size_t>(w), 1), end);
    const std::size_t lo = end - window;
    return lo + static_cast<std::size_t>(rng.below(window));
  };

  for (int g = 0; g < spec.num_gates; ++g) {
    const bool make_dff = g < num_dff;  // DFFs early: their outputs feed logic
    const CellTypeId type =
        make_dff ? lib.dff()
                 : gates[static_cast<std::size_t>(rng.below(gates.size()))];
    const std::string name = (make_dff ? "ff" : "g") + std::to_string(g);
    const CellId cell = nl.add_cell(name, type);
    const std::size_t end = pool.size();
    const int arity = lib.type(type).num_inputs;
    // Avoid duplicate input nets where possible (real netlists rarely tie
    // two pins of one gate to the same net).
    std::vector<std::size_t> used;
    for (int p = 0; p < arity; ++p) {
      std::size_t idx = pick_input(end);
      for (int attempt = 0;
           attempt < 4 && std::find(used.begin(), used.end(), idx) != used.end();
           ++attempt)
        idx = pick_input(end);
      used.push_back(idx);
      nl.connect_input(cell, p, pool[idx]);
      ++sink_count[idx];
    }
    push_net(nl.cell(cell).output);
  }

  // Primary outputs: prefer nets that still have no sink, then the most
  // recently created gate outputs (circuit "tips").
  std::vector<std::size_t> po_choice;
  for (std::size_t idx : starving)
    if (idx >= static_cast<std::size_t>(spec.num_pi)) po_choice.push_back(idx);
  for (std::size_t idx = pool.size(); idx-- > static_cast<std::size_t>(spec.num_pi);) {
    if (po_choice.size() >= static_cast<std::size_t>(spec.num_po) * 2) break;
    if (sink_count[idx] == 0) continue;  // already collected above
    po_choice.push_back(idx);
  }
  // Deduplicate, preserve order.
  std::vector<std::size_t> po_final;
  for (std::size_t idx : po_choice) {
    if (std::find(po_final.begin(), po_final.end(), idx) == po_final.end())
      po_final.push_back(idx);
    if (po_final.size() == static_cast<std::size_t>(spec.num_po)) break;
  }
  // Edge case: tiny circuits may need PI nets as POs to hit the count.
  for (std::size_t idx = 0; po_final.size() < static_cast<std::size_t>(spec.num_po) &&
                            idx < pool.size(); ++idx) {
    if (std::find(po_final.begin(), po_final.end(), idx) == po_final.end())
      po_final.push_back(idx);
  }
  for (std::size_t i = 0; i < po_final.size(); ++i)
    nl.add_primary_output("po" + std::to_string(i), pool[po_final[i]]);

  // Any net still sinkless (e.g. starving PIs in gate-poor specs) feeds an
  // extra observer port so simulation observes the whole circuit.
  std::vector<bool> is_po_net(nl.num_nets(), false);
  for (std::size_t i = 0; i < nl.primary_outputs().size(); ++i)
    is_po_net[nl.primary_output_net(i)] = true;
  int extra = 0;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).sinks.empty() && !is_po_net[n])
      nl.add_primary_output("po_x" + std::to_string(extra++), n);
  }

  nl.validate();
  return nl;
}

namespace {

GenSpec iscas(const std::string& name, int pi, int po, int gates, int window) {
  GenSpec s;
  s.name = name;
  s.num_pi = pi;
  s.num_po = po;
  s.num_gates = gates;
  s.dff_fraction = 0.0;
  s.locality_window = window;
  // Mild two-scale locality only: the tight superblue defaults cause so much
  // reconvergence on these small, deep circuits that outputs go near
  // constant (no observability, no error propagation).
  s.short_bias = 0.3;
  s.short_window = std::max(16, window / 2);
  s.fanout_decay = 0.30;
  s.utilization = 0.60;
  return s;
}

struct SuperblueRow {
  const char* name;
  int cells;       ///< published instance scale proxy (paper Table 2 nets)
  int io_in, io_out;
  double util;     ///< published utilization (paper Table 2)
};

// Published parameters from the paper's Table 2 (nets, I/O pins, util).
constexpr SuperblueRow kSuperblue[] = {
    {"superblue1", 873712, 8320, 13025, 0.69},
    {"superblue5", 754907, 11661, 9617, 0.77},
    {"superblue10", 1147401, 10454, 23663, 0.75},
    {"superblue12", 1520046, 1936, 4629, 0.56},
    {"superblue18", 670323, 3921, 7465, 0.67},
};

}  // namespace

GenSpec iscas85_profile(const std::string& name) {
  // Published ISCAS-85 PI/PO/gate counts.
  if (name == "c432") return iscas(name, 36, 7, 160, 24);
  if (name == "c880") return iscas(name, 60, 26, 383, 40);
  if (name == "c1355") return iscas(name, 41, 32, 546, 40);
  if (name == "c1908") return iscas(name, 33, 25, 880, 48);
  if (name == "c2670") return iscas(name, 233, 140, 1193, 64);
  if (name == "c3540") return iscas(name, 50, 22, 1669, 64);
  if (name == "c5315") return iscas(name, 178, 123, 2307, 96);
  // c6288 (multiplier): a very narrow locality window on a random DAG causes
  // so much reconvergence that outputs lose input sensitivity; 160 keeps the
  // clone deep but observable.
  if (name == "c6288") return iscas(name, 32, 32, 2406, 160);
  if (name == "c7552") return iscas(name, 207, 108, 3512, 96);
  throw std::invalid_argument("iscas85_profile: unknown benchmark '" + name + "'");
}

const std::vector<std::string>& iscas85_names() {
  static const std::vector<std::string> names = {
      "c432", "c880", "c1355", "c1908", "c2670",
      "c3540", "c5315", "c6288", "c7552"};
  return names;
}

GenSpec superblue_profile(const std::string& name, double scale) {
  if (!(scale > 0.0 && scale <= 1.0))  // NaN fails too
    throw std::invalid_argument("superblue_profile: scale must be in (0,1]");
  for (const auto& row : kSuperblue) {
    if (name != row.name) continue;
    GenSpec s;
    s.name = name;
    s.num_gates = std::max(1000, static_cast<int>(std::lround(
                                     static_cast<double>(row.cells) * scale)));
    const double io_scale = std::sqrt(scale);
    s.num_pi = std::max(16, static_cast<int>(std::lround(row.io_in * io_scale)));
    s.num_po = std::max(16, static_cast<int>(std::lround(row.io_out * io_scale)));
    s.dff_fraction = 0.12;  // typical sequential share of the superblue suite
    s.locality_window = std::max(64, s.num_gates / 100);
    s.fanout_decay = 0.35;
    s.utilization = row.util;
    return s;
  }
  throw std::invalid_argument("superblue_profile: unknown benchmark '" + name + "'");
}

const std::vector<std::string>& superblue_names() {
  static const std::vector<std::string> names = {
      "superblue1", "superblue5", "superblue10", "superblue12", "superblue18"};
  return names;
}

namespace {

struct SyntheticRow {
  const char* name;
  int gates;
  int io_in, io_out;
};

// A clean power-of-4 scaling ladder: largest ISCAS clone is c7552 at 3512
// gates and the default superblue clones land around 15-30k, so the ladder
// starts above the former and tops out well past the latter. I/O follows a
// perimeter-vs-area rule of thumb (~3*sqrt(gates) in, ~2*sqrt(gates) out).
constexpr SyntheticRow kSynthetic[] = {
    {"synth1k", 1000, 96, 64},
    {"synth4k", 4000, 192, 128},
    {"synth16k", 16000, 384, 256},
    {"synth64k", 64000, 768, 512},
    {"synth128k", 128000, 1086, 724},
};

}  // namespace

GenSpec synthetic_profile(const std::string& name, double scale) {
  if (!(scale > 0.0 && scale <= 1.0))  // NaN fails too
    throw std::invalid_argument("synthetic_profile: scale must be in (0,1]");
  for (const auto& row : kSynthetic) {
    if (name != row.name) continue;
    GenSpec s;
    s.name = name;
    s.num_gates = std::max(200, static_cast<int>(std::lround(
                                    static_cast<double>(row.gates) * scale)));
    const double io_scale = std::sqrt(scale);
    s.num_pi = std::max(16, static_cast<int>(std::lround(row.io_in * io_scale)));
    s.num_po = std::max(16, static_cast<int>(std::lround(row.io_out * io_scale)));
    s.dff_fraction = 0.10;
    s.locality_window = std::max(64, s.num_gates / 100);
    s.fanout_decay = 0.35;
    s.utilization = 0.60;
    return s;
  }
  throw std::invalid_argument("synthetic_profile: unknown benchmark '" + name +
                              "'");
}

const std::vector<std::string>& synthetic_names() {
  static const std::vector<std::string> names = {
      "synth1k", "synth4k", "synth16k", "synth64k", "synth128k"};
  return names;
}

}  // namespace sm::workloads
