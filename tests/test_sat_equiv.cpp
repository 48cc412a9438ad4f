// SAT solver and layered equivalence-checker tests.
#include "core/equivalence.hpp"
#include "core/randomizer.hpp"
#include "place/buffering.hpp"
#include "place/placer.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

namespace {

using namespace sm;
using sat::Lit;
using sat::Result;
using sat::Solver;

TEST(SatSolver, TrivialSatAndUnsat) {
  {
    Solver s;
    const int a = s.new_var();
    s.add_clause({Lit::make(a, true)});
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.value(a));
  }
  {
    Solver s;
    const int a = s.new_var();
    s.add_clause({Lit::make(a, true)});
    EXPECT_FALSE(s.add_clause({Lit::make(a, false)}));
    EXPECT_EQ(s.solve(), Result::Unsat);
  }
}

TEST(SatSolver, UnitPropagationChain) {
  Solver s;
  std::vector<int> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  // v0 and chain v_i -> v_{i+1}; finally !v9: UNSAT.
  s.add_clause({Lit::make(v[0], true)});
  for (int i = 0; i + 1 < 10; ++i)
    s.add_clause({Lit::make(v[i], false), Lit::make(v[i + 1], true)});
  s.add_clause({Lit::make(v[9], false)});
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(SatSolver, PigeonHole3Into2IsUnsat) {
  // PHP(3,2): 3 pigeons, 2 holes — classic small UNSAT needing search.
  Solver s;
  int p[3][2];
  for (auto& row : p)
    for (auto& x : row) x = s.new_var();
  for (int i = 0; i < 3; ++i)
    s.add_clause({Lit::make(p[i][0], true), Lit::make(p[i][1], true)});
  for (int h = 0; h < 2; ++h)
    for (int i = 0; i < 3; ++i)
      for (int j = i + 1; j < 3; ++j)
        s.add_clause({Lit::make(p[i][h], false), Lit::make(p[j][h], false)});
  EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(SatSolver, SatisfiableRandom3Sat) {
  // Planted-solution random 3-SAT: always satisfiable.
  Solver s;
  util::Rng rng(11);
  constexpr int kVars = 60;
  std::vector<int> vars;
  std::vector<bool> planted;
  for (int i = 0; i < kVars; ++i) {
    vars.push_back(s.new_var());
    planted.push_back(rng.chance(0.5));
  }
  for (int c = 0; c < 240; ++c) {
    std::vector<Lit> clause;
    bool satisfied = false;
    for (int k = 0; k < 3; ++k) {
      const int v = static_cast<int>(rng.below(kVars));
      const bool pos = rng.chance(0.5);
      clause.push_back(Lit::make(vars[static_cast<std::size_t>(v)], pos));
      if (pos == planted[static_cast<std::size_t>(v)]) satisfied = true;
    }
    if (!satisfied)  // flip one literal to agree with the planted model
      clause[0] = clause[0].negated();
    s.add_clause(clause);
  }
  ASSERT_EQ(s.solve(), Result::Sat);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  // PHP(7,6) is hard enough to exceed a 10-conflict budget.
  Solver s;
  constexpr int kP = 7, kH = 6;
  std::vector<std::vector<int>> p(kP, std::vector<int>(kH));
  for (auto& row : p)
    for (auto& x : row) x = s.new_var();
  for (int i = 0; i < kP; ++i) {
    std::vector<Lit> c;
    for (int h = 0; h < kH; ++h) c.push_back(Lit::make(p[i][h], true));
    s.add_clause(c);
  }
  for (int h = 0; h < kH; ++h)
    for (int i = 0; i < kP; ++i)
      for (int j = i + 1; j < kP; ++j)
        s.add_clause({Lit::make(p[i][h], false), Lit::make(p[j][h], false)});
  EXPECT_EQ(s.solve({}, 10), Result::Unknown);
}

class EquivTest : public ::testing::Test {
 protected:
  netlist::CellLibrary lib;
};

TEST_F(EquivTest, IdenticalNetlistsAreStructurallyEquivalent) {
  const auto nl = workloads::generate(lib, workloads::iscas85_profile("c880"), 1);
  const auto res = core::check_equivalence(nl, nl);
  EXPECT_EQ(res.verdict, core::EquivVerdict::Equivalent);
  EXPECT_EQ(res.method, "structural");
}

TEST_F(EquivTest, RestoredNetlistIsEquivalent) {
  const auto nl = workloads::generate(lib, workloads::iscas85_profile("c1355"), 2);
  core::RandomizeOptions opts;
  opts.seed = 5;
  auto rr = core::randomize(nl, opts);
  core::restore_netlist(rr.erroneous, rr.ledger);
  const auto res = core::check_equivalence(nl, rr.erroneous);
  EXPECT_EQ(res.verdict, core::EquivVerdict::Equivalent);
  EXPECT_EQ(res.method, "structural");  // restoration is structurally exact
}

TEST_F(EquivTest, RepeatersAreStructurallyTransparent) {
  // Repeater insertion changes the structure but not the function; the
  // structural layer sees through the buffers, so no SAT miter is needed.
  const auto nl = workloads::generate(lib, workloads::iscas85_profile("c880"), 1);
  auto sized = nl.clone();
  auto pl = place::Placer().place(sized);
  ASSERT_GT(place::insert_buffers(sized, pl).buffers_inserted, 0u);
  const auto res = core::check_equivalence(nl, sized);
  EXPECT_EQ(res.verdict, core::EquivVerdict::Equivalent);
  EXPECT_EQ(res.method, "structural");
}

TEST_F(EquivTest, ErroneousNetlistIsInequivalentWithCounterexample) {
  const auto nl = workloads::generate(lib, workloads::iscas85_profile("c880"), 3);
  core::RandomizeOptions opts;
  opts.seed = 7;
  const auto rr = core::randomize(nl, opts);
  const auto res = core::check_equivalence(nl, rr.erroneous);
  ASSERT_EQ(res.verdict, core::EquivVerdict::Inequivalent);
  EXPECT_EQ(res.method, "simulation");  // OER ~100%: one word suffices
  EXPECT_TRUE(core::counterexample_distinguishes(nl, rr.erroneous,
                                                 res.counterexample));
}

TEST_F(EquivTest, SatCatchesSimulationResistantDifference) {
  // y = AND(a0..a11) vs constant-0-ish circuit: differs only on the
  // all-ones input, which 256 random patterns on 12 inputs will miss with
  // probability (1 - 2^-12)^256 ~ 94%. Use a fixed seed where they do miss;
  // SAT must find the needle.
  auto build = [&](bool broken) {
    netlist::Netlist nl(lib, "needle");
    std::vector<netlist::NetId> ins;
    for (int i = 0; i < 12; ++i)
      ins.push_back(nl.add_primary_input("a" + std::to_string(i)));
    // Balanced AND tree of NAND+INV pairs.
    std::vector<netlist::NetId> layer = ins;
    int uid = 0;
    while (layer.size() > 1) {
      std::vector<netlist::NetId> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        const auto g = nl.add_cell("and" + std::to_string(uid++),
                                   lib.id_of("AND2_X1"));
        nl.connect_input(g, 0, layer[i]);
        nl.connect_input(g, 1, layer[i + 1]);
        next.push_back(nl.cell(g).output);
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = next;
    }
    netlist::NetId out = layer[0];
    if (broken) {
      // AND with an inverted copy of a0: kills the all-ones minterm only...
      // (a0 & !a0 = 0) — actually forces constant 0, differing exactly on
      // the single input where the tree evaluates to 1.
      const auto inv = nl.add_cell("binv", lib.id_of("INV_X1"));
      nl.connect_input(inv, 0, ins[0]);
      const auto g = nl.add_cell("band", lib.id_of("AND2_X1"));
      nl.connect_input(g, 0, out);
      nl.connect_input(g, 1, nl.cell(inv).output);
      out = nl.cell(g).output;
    }
    nl.add_primary_output("y", out);
    return nl;
  };
  const auto good = build(false);
  const auto bad = build(true);
  core::EquivOptions opts;
  opts.sim_patterns = 256;
  opts.seed = 1;
  const auto res = core::check_equivalence(good, bad, opts);
  ASSERT_EQ(res.verdict, core::EquivVerdict::Inequivalent);
  EXPECT_TRUE(core::counterexample_distinguishes(good, bad, res.counterexample));
  if (res.method == "sat") {
    // The counterexample must be the all-ones pattern on a1..a11 with a0=1.
    for (std::size_t i = 0; i < res.counterexample.size(); ++i)
      EXPECT_TRUE(res.counterexample[i]) << "input " << i;
  }
}

TEST_F(EquivTest, SatProvesFunctionallyEqualButStructurallyDifferent) {
  // NAND(a,b) vs INV(AND(a,b)): different structure, same function — the
  // structural layer fails, simulation finds nothing, SAT proves UNSAT.
  netlist::Netlist x(lib, "x");
  {
    const auto a = x.add_primary_input("a");
    const auto b = x.add_primary_input("b");
    const auto g = x.add_cell("g", lib.id_of("NAND2_X1"));
    x.connect_input(g, 0, a);
    x.connect_input(g, 1, b);
    x.add_primary_output("y", x.cell(g).output);
  }
  netlist::Netlist y(lib, "y");
  {
    const auto a = y.add_primary_input("a");
    const auto b = y.add_primary_input("b");
    const auto g = y.add_cell("g", lib.id_of("AND2_X1"));
    y.connect_input(g, 0, a);
    y.connect_input(g, 1, b);
    const auto inv = y.add_cell("i", lib.id_of("INV_X1"));
    y.connect_input(inv, 0, y.cell(g).output);
    y.add_primary_output("y", y.cell(inv).output);
  }
  const auto res = core::check_equivalence(x, y);
  EXPECT_EQ(res.verdict, core::EquivVerdict::Equivalent);
  EXPECT_EQ(res.method, "sat");
}

TEST_F(EquivTest, SequentialNetlistsSupported) {
  const auto nl = workloads::generate(
      lib, workloads::superblue_profile("superblue18", 0.002), 4);
  const auto res = core::check_equivalence(nl, nl);
  EXPECT_EQ(res.verdict, core::EquivVerdict::Equivalent);

  core::RandomizeOptions opts;
  opts.seed = 2;
  const auto rr = core::randomize(nl, opts);
  const auto bad = core::check_equivalence(nl, rr.erroneous);
  EXPECT_EQ(bad.verdict, core::EquivVerdict::Inequivalent);
}

TEST_F(EquivTest, MismatchedInterfacesThrow) {
  const auto a = workloads::generate(lib, workloads::iscas85_profile("c432"), 1);
  const auto b = workloads::generate(lib, workloads::iscas85_profile("c880"), 1);
  EXPECT_THROW(core::check_equivalence(a, b), std::invalid_argument);
}

// Exhaustive cross-validation on small random netlists: the layered checker
// must agree with brute-force simulation over all 2^n inputs.
class EquivExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivExhaustive, AgreesWithExhaustiveSimulation) {
  netlist::CellLibrary lib;
  workloads::GenSpec spec;
  spec.num_pi = 6;
  spec.num_po = 3;
  spec.num_gates = 24;
  const auto a = workloads::generate(lib, spec, GetParam());
  // Mutate: swap two sinks (usually changes function, sometimes not).
  core::RandomizeOptions ropts;
  ropts.seed = GetParam() * 31 + 7;
  ropts.max_swaps = 1;
  ropts.min_swaps = 1;
  ropts.target_oer = 2.0;
  const auto rr = core::randomize(a, ropts);

  const bool truly_equal = sim::equivalent(a, rr.erroneous, 64, 0) &&
                           sim::compare(a, rr.erroneous, 64, 1).oer == 0.0;
  core::EquivOptions opts;
  opts.sim_patterns = 64;  // 2^6 = 64 -> effectively exhaustive via random,
                           // but SAT settles any residual doubt
  const auto res = core::check_equivalence(a, rr.erroneous, opts);
  if (truly_equal) {
    EXPECT_NE(res.verdict, core::EquivVerdict::Inequivalent);
  } else {
    EXPECT_EQ(res.verdict, core::EquivVerdict::Inequivalent);
    EXPECT_TRUE(core::counterexample_distinguishes(a, rr.erroneous,
                                                   res.counterexample));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivExhaustive,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
