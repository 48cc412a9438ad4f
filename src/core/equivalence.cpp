#include "core/equivalence.hpp"

#include "sat/solver.hpp"
#include "netlist/topo.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <stdexcept>

// The miter construction leans on C++20 <bit> (std::popcount /
// std::countr_zero); without this guard a -std=c++17 build dies deep inside
// the function bodies with inscrutable lookup errors.
#if !defined(__cpp_lib_bitops) || __cpp_lib_bitops < 201907L
#error "sm requires C++20 <bit> (std::popcount/std::countr_zero); build with -std=c++20 or newer"
#endif

namespace sm::core {

using netlist::CellId;
using netlist::kInvalidNet;
using netlist::LogicFn;
using netlist::NetId;
using netlist::Netlist;
using sat::Lit;

namespace {

/// Conflicts the SAT miter may spend before the verdict is Unknown.
constexpr std::int64_t kSatConflictBudget = 200000;

/// Source nets in canonical order: primary inputs, then DFF outputs.
std::vector<NetId> source_nets(const Netlist& nl) {
  std::vector<NetId> src;
  for (const CellId pi : nl.primary_inputs()) src.push_back(nl.cell(pi).output);
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (nl.is_dff(id)) src.push_back(nl.cell(id).output);
  return src;
}

/// Observer nets in canonical order: PO inputs, then DFF inputs.
std::vector<NetId> observer_nets(const Netlist& nl) {
  std::vector<NetId> obs;
  for (std::size_t i = 0; i < nl.primary_outputs().size(); ++i)
    obs.push_back(nl.primary_output_net(i));
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (nl.is_dff(id)) obs.push_back(nl.cell(id).inputs.at(0));
  return obs;
}

bool commutative(LogicFn fn) {
  switch (fn) {
    case LogicFn::And:
    case LogicFn::Nand:
    case LogicFn::Or:
    case LogicFn::Nor:
    case LogicFn::Xor:
    case LogicFn::Xnor:
      return true;
    default:
      return false;
  }
}

/// Canonical structural class per net, shared across both netlists.
class StructuralClasses {
 public:
  /// Class for a source with canonical index `i`.
  std::uint64_t source_class(std::size_t i) {
    return intern({~static_cast<std::uint64_t>(i), 0, 0});
  }

  std::uint64_t gate_class(LogicFn fn, std::vector<std::uint64_t> children) {
    // A buffer is the identity, so a repeater-sized netlist hashes like the
    // netlist it sizes.
    if (fn == LogicFn::Buf) return children.at(0);
    if (commutative(fn)) std::sort(children.begin(), children.end());
    // Aoi21/Oai21: the first two children commute.
    if ((fn == LogicFn::Aoi21 || fn == LogicFn::Oai21) && children.size() == 3 &&
        children[0] > children[1])
      std::swap(children[0], children[1]);
    std::uint64_t h = 1469598103934665603ULL ^ static_cast<std::uint64_t>(fn);
    for (const auto c : children) {
      h ^= c + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return intern({h, static_cast<std::uint64_t>(fn), children.size()});
  }

 private:
  std::uint64_t intern(const std::array<std::uint64_t, 3>& key) {
    const auto [it, fresh] = ids_.try_emplace(key, ids_.size() + 1);
    return it->second;
  }
  std::map<std::array<std::uint64_t, 3>, std::uint64_t> ids_;
};

/// Compute structural classes for all nets of `nl` using shared `classes`.
std::vector<std::uint64_t> classify(const Netlist& nl,
                                    StructuralClasses& classes) {
  std::vector<std::uint64_t> cls(nl.num_nets(), 0);
  const auto srcs = source_nets(nl);
  for (std::size_t i = 0; i < srcs.size(); ++i)
    cls[srcs[i]] = classes.source_class(i);
  const auto order = netlist::topological_order(nl);
  if (!order) throw std::logic_error("check_equivalence: cyclic netlist");
  for (const CellId id : *order) {
    if (!nl.is_combinational(id)) continue;
    const auto& c = nl.cell(id);
    if (c.output == kInvalidNet || cls[c.output] != 0) continue;
    std::vector<std::uint64_t> children;
    for (const NetId in : c.inputs) children.push_back(cls[in]);
    cls[c.output] = classes.gate_class(nl.type_of(id).fn, std::move(children));
  }
  return cls;
}

/// Tseitin encoding of one netlist into `solver`; source nets use the shared
/// `source_vars`. Returns the variable of every net.
std::vector<int> encode(const Netlist& nl, sat::Solver& solver,
                        const std::vector<int>& source_vars) {
  std::vector<int> var(nl.num_nets(), -1);
  const auto srcs = source_nets(nl);
  for (std::size_t i = 0; i < srcs.size(); ++i) var[srcs[i]] = source_vars[i];
  const auto order = netlist::topological_order(nl);
  for (const CellId id : *order) {
    if (!nl.is_combinational(id)) continue;
    const auto& c = nl.cell(id);
    if (c.output == kInvalidNet || var[c.output] >= 0) continue;
    const int y = solver.new_var();
    var[c.output] = y;
    auto in = [&](std::size_t i) {
      return Lit::make(var[c.inputs[i]], true);
    };
    const Lit ly = Lit::make(y, true);
    switch (nl.type_of(id).fn) {
      case LogicFn::Buf:
        solver.add_clause({ly.negated(), in(0)});
        solver.add_clause({ly, in(0).negated()});
        break;
      case LogicFn::Inv:
        solver.add_clause({ly.negated(), in(0).negated()});
        solver.add_clause({ly, in(0)});
        break;
      case LogicFn::And:
      case LogicFn::Nand: {
        const bool neg = nl.type_of(id).fn == LogicFn::Nand;
        const Lit out = neg ? ly.negated() : ly;
        std::vector<Lit> big{out};
        for (std::size_t i = 0; i < c.inputs.size(); ++i) {
          solver.add_clause({out.negated(), in(i)});
          big.push_back(in(i).negated());
        }
        solver.add_clause(big);
        break;
      }
      case LogicFn::Or:
      case LogicFn::Nor: {
        const bool neg = nl.type_of(id).fn == LogicFn::Nor;
        const Lit out = neg ? ly.negated() : ly;
        std::vector<Lit> big{out.negated()};
        for (std::size_t i = 0; i < c.inputs.size(); ++i) {
          solver.add_clause({out, in(i).negated()});
          big.push_back(in(i));
        }
        solver.add_clause(big);
        break;
      }
      case LogicFn::Xor:
      case LogicFn::Xnor: {
        // y = a ^ b (^ 1 for xnor): flip y literal for xnor.
        const bool neg = nl.type_of(id).fn == LogicFn::Xnor;
        const Lit out = neg ? ly.negated() : ly;
        solver.add_clause({out.negated(), in(0), in(1)});
        solver.add_clause({out.negated(), in(0).negated(), in(1).negated()});
        solver.add_clause({out, in(0), in(1).negated()});
        solver.add_clause({out, in(0).negated(), in(1)});
        break;
      }
      case LogicFn::Aoi21:
      case LogicFn::Oai21: {
        // t = A op1 B; y = !(t op2 C). Aoi: op1=and, op2=or.
        const bool aoi = nl.type_of(id).fn == LogicFn::Aoi21;
        const int t = solver.new_var();
        const Lit lt = Lit::make(t, true);
        if (aoi) {  // t = a & b
          solver.add_clause({lt.negated(), in(0)});
          solver.add_clause({lt.negated(), in(1)});
          solver.add_clause({lt, in(0).negated(), in(1).negated()});
        } else {  // t = a | b
          solver.add_clause({lt, in(0).negated()});
          solver.add_clause({lt, in(1).negated()});
          solver.add_clause({lt.negated(), in(0), in(1)});
        }
        const Lit ny = ly.negated();  // s = !y, so y = !(t op2 c)
        if (aoi) {  // !y = t | c
          solver.add_clause({ny, lt.negated()});
          solver.add_clause({ny, in(2).negated()});
          solver.add_clause({ny.negated(), lt, in(2)});
        } else {  // !y = t & c
          solver.add_clause({ny.negated(), lt});
          solver.add_clause({ny.negated(), in(2)});
          solver.add_clause({ny, lt.negated(), in(2).negated()});
        }
        break;
      }
      case LogicFn::Mux2: {
        // y = s ? b : a   (inputs a=0, b=1, s=2)
        solver.add_clause({in(2).negated(), in(1).negated(), ly});
        solver.add_clause({in(2).negated(), in(1), ly.negated()});
        solver.add_clause({in(2), in(0).negated(), ly});
        solver.add_clause({in(2), in(0), ly.negated()});
        break;
      }
      case LogicFn::Const0:
        solver.add_clause({ly.negated()});
        break;
      case LogicFn::Const1:
        solver.add_clause({ly});
        break;
      case LogicFn::Dff:
      case LogicFn::Port:
        break;  // handled as sources/observers
    }
  }
  return var;
}

}  // namespace

bool counterexample_distinguishes(const Netlist& a, const Netlist& b,
                                  const std::vector<bool>& assignment) {
  sim::Simulator sa(a), sb(b);
  if (sa.num_sources() != assignment.size()) return false;
  std::vector<std::uint64_t> words(assignment.size());
  for (std::size_t i = 0; i < assignment.size(); ++i)
    words[i] = assignment[i] ? ~0ULL : 0ULL;
  std::vector<std::uint64_t> oa, ob;
  sa.eval(words, oa);
  sb.eval(words, ob);
  for (std::size_t i = 0; i < oa.size(); ++i)
    if ((oa[i] & 1) != (ob[i] & 1)) return true;
  return false;
}

EquivResult check_equivalence(const Netlist& a, const Netlist& b,
                              const EquivOptions& opts) {
  EquivResult result;
  const auto src_a = source_nets(a);
  const auto src_b = source_nets(b);
  const auto obs_a = observer_nets(a);
  const auto obs_b = observer_nets(b);
  if (src_a.size() != src_b.size() || obs_a.size() != obs_b.size())
    throw std::invalid_argument(
        "check_equivalence: source/observer count mismatch");

  // Layer 1: structural hashing.
  {
    StructuralClasses classes;
    const auto cls_a = classify(a, classes);
    const auto cls_b = classify(b, classes);
    bool all_equal = true;
    for (std::size_t i = 0; i < obs_a.size(); ++i)
      if (cls_a[obs_a[i]] != cls_b[obs_b[i]]) all_equal = false;
    if (all_equal) {
      result.verdict = EquivVerdict::Equivalent;
      result.method = "structural";
      return result;
    }
  }

  // Layer 2: random simulation.
  {
    sim::Simulator sa(a), sb(b);
    util::Rng rng(opts.seed ^ 0xec21ULL);
    std::vector<std::uint64_t> in(sa.num_sources());
    std::vector<std::uint64_t> oa, ob;
    const std::size_t words = (opts.sim_patterns + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
      for (auto& word : in) word = rng();
      sa.eval(in, oa);
      sb.eval(in, ob);
      std::uint64_t diff = 0;
      for (std::size_t i = 0; i < oa.size(); ++i) diff |= oa[i] ^ ob[i];
      if (diff != 0) {
        const int bit = std::countr_zero(diff);
        result.verdict = EquivVerdict::Inequivalent;
        result.method = "simulation";
        result.counterexample.resize(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
          result.counterexample[i] = ((in[i] >> bit) & 1) != 0;
        return result;
      }
    }
  }

  // Layer 3: SAT on the miter.
  sat::Solver solver;
  std::vector<int> source_vars(src_a.size());
  for (auto& v : source_vars) v = solver.new_var();
  const auto var_a = encode(a, solver, source_vars);
  const auto var_b = encode(b, solver, source_vars);
  std::vector<Lit> any_diff;
  for (std::size_t i = 0; i < obs_a.size(); ++i) {
    const int va = var_a[obs_a[i]];
    const int vb = var_b[obs_b[i]];
    const int d = solver.new_var();
    const Lit ld = Lit::make(d, true);
    const Lit la = Lit::make(va, true);
    const Lit lb = Lit::make(vb, true);
    // d = va ^ vb
    solver.add_clause({ld.negated(), la, lb});
    solver.add_clause({ld.negated(), la.negated(), lb.negated()});
    solver.add_clause({ld, la, lb.negated()});
    solver.add_clause({ld, la.negated(), lb});
    any_diff.push_back(ld);
  }
  solver.add_clause(any_diff);

  const sat::Result sr = solver.solve({}, kSatConflictBudget);
  result.sat_conflicts = solver.conflicts();
  result.method = "sat";
  switch (sr) {
    case sat::Result::Unsat:
      result.verdict = EquivVerdict::Equivalent;
      break;
    case sat::Result::Sat: {
      result.verdict = EquivVerdict::Inequivalent;
      result.counterexample.resize(source_vars.size());
      for (std::size_t i = 0; i < source_vars.size(); ++i)
        result.counterexample[i] = solver.value(source_vars[i]);
      break;
    }
    case sat::Result::Unknown:
      result.verdict = EquivVerdict::Unknown;
      break;
  }
  return result;
}

}  // namespace sm::core
