// Simulator correctness: gate truth tables, OER/HD semantics, determinism,
// sequential cut handling, toggle rates.
#include "netlist/netlist.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

namespace {

using namespace sm::netlist;
using sm::sim::Simulator;

class SimTest : public ::testing::Test {
 protected:
  CellLibrary lib;
};

// Evaluate a single-gate circuit on all input combinations packed in words.
std::uint64_t eval_gate(const CellLibrary& lib, const std::string& type,
                        const std::vector<std::uint64_t>& ins) {
  Netlist nl(lib, "g");
  const CellTypeId t = lib.id_of(type);
  const CellId g = nl.add_cell("u", t);
  for (std::size_t i = 0; i < ins.size(); ++i) {
    const NetId n = nl.add_primary_input("i" + std::to_string(i));
    nl.connect_input(g, static_cast<int>(i), n);
  }
  nl.add_primary_output("y", nl.cell(g).output);
  Simulator s(nl);
  std::vector<std::uint64_t> out;
  s.eval(ins, out);
  return out.at(0);
}

TEST_F(SimTest, TruthTables) {
  const std::uint64_t a = 0b1100, b = 0b1010, c = 0b1111000011110000;
  EXPECT_EQ(eval_gate(lib, "INV_X1", {a}) & 0xF, 0b0011u);
  EXPECT_EQ(eval_gate(lib, "BUF_X2", {a}) & 0xF, 0b1100u);
  EXPECT_EQ(eval_gate(lib, "AND2_X1", {a, b}) & 0xF, 0b1000u);
  EXPECT_EQ(eval_gate(lib, "NAND2_X1", {a, b}) & 0xF, 0b0111u);
  EXPECT_EQ(eval_gate(lib, "OR2_X1", {a, b}) & 0xF, 0b1110u);
  EXPECT_EQ(eval_gate(lib, "NOR2_X1", {a, b}) & 0xF, 0b0001u);
  EXPECT_EQ(eval_gate(lib, "XOR2_X1", {a, b}) & 0xF, 0b0110u);
  EXPECT_EQ(eval_gate(lib, "XNOR2_X1", {a, b}) & 0xF, 0b1001u);
  // AOI21: !((A&B)|C); check a few bit positions.
  const std::uint64_t aoi = eval_gate(lib, "AOI21_X1", {a, b, 0b0001});
  EXPECT_EQ(aoi & 0xF, static_cast<std::uint64_t>(~((a & b) | 0b0001)) & 0xF);
  const std::uint64_t oai = eval_gate(lib, "OAI21_X1", {a, b, 0b0111});
  EXPECT_EQ(oai & 0xF, static_cast<std::uint64_t>(~((a | b) & 0b0111)) & 0xF);
  // MUX2: S ? B : A.
  const std::uint64_t mux = eval_gate(lib, "MUX2_X1", {a, b, c});
  EXPECT_EQ(mux, (a & ~c) | (b & c));
  // NAND3 with all-ones third input behaves like NAND2.
  EXPECT_EQ(eval_gate(lib, "NAND3_X1", {a, b, ~0ULL}) & 0xF, 0b0111u);
}

TEST_F(SimTest, DeepChainPropagates) {
  // A 100-inverter chain computes identity (even count).
  Netlist nl(lib, "chain");
  NetId cur = nl.add_primary_input("a");
  for (int i = 0; i < 100; ++i) {
    const CellId g = nl.add_cell("inv" + std::to_string(i), lib.id_of("INV_X1"));
    nl.connect_input(g, 0, cur);
    cur = nl.cell(g).output;
  }
  nl.add_primary_output("y", cur);
  Simulator s(nl);
  std::vector<std::uint64_t> out;
  s.eval({0xdeadbeefcafebabeULL}, out);
  EXPECT_EQ(out.at(0), 0xdeadbeefcafebabeULL);
}

TEST_F(SimTest, CompareIdenticalNetlistsIsZero) {
  CellLibrary l;
  const auto nl = sm::workloads::generate(l, sm::workloads::iscas85_profile("c432"), 5);
  const auto r = sm::sim::compare(nl, nl, 10000, 3);
  EXPECT_DOUBLE_EQ(r.oer, 0.0);
  EXPECT_DOUBLE_EQ(r.hd, 0.0);
  EXPECT_EQ(r.patterns, 10000u);
}

TEST_F(SimTest, CompareDetectsSingleInversion) {
  CellLibrary l;
  Netlist a(l, "a");
  const NetId in = a.add_primary_input("i");
  const CellId buf = a.add_cell("b", l.id_of("BUF_X1"));
  a.connect_input(buf, 0, in);
  a.add_primary_output("y", a.cell(buf).output);

  Netlist b(l, "b");
  const NetId in2 = b.add_primary_input("i");
  const CellId inv = b.add_cell("b", l.id_of("INV_X1"));
  b.connect_input(inv, 0, in2);
  b.add_primary_output("y", b.cell(inv).output);

  const auto r = sm::sim::compare(a, b, 1000, 3);
  EXPECT_DOUBLE_EQ(r.oer, 1.0);  // every pattern differs
  EXPECT_DOUBLE_EQ(r.hd, 1.0);   // the only output bit is always wrong
}

TEST_F(SimTest, HdReflectsPartialDamage) {
  // Two outputs; one correct, one inverted: HD = 0.5, OER = 1.0.
  CellLibrary l;
  auto build = [&](bool invert_second) {
    Netlist nl(l, "x");
    const NetId i0 = nl.add_primary_input("i0");
    const NetId i1 = nl.add_primary_input("i1");
    const CellId g0 = nl.add_cell("g0", l.id_of("BUF_X1"));
    nl.connect_input(g0, 0, i0);
    const CellId g1 = nl.add_cell("g1", l.id_of(invert_second ? "INV_X1" : "BUF_X1"));
    nl.connect_input(g1, 0, i1);
    nl.add_primary_output("y0", nl.cell(g0).output);
    nl.add_primary_output("y1", nl.cell(g1).output);
    return nl;
  };
  const auto r = sm::sim::compare(build(false), build(true), 640, 9);
  EXPECT_DOUBLE_EQ(r.hd, 0.5);
  EXPECT_DOUBLE_EQ(r.oer, 1.0);
}

TEST_F(SimTest, NonMultipleOf64PatternCount) {
  CellLibrary l;
  const auto nl = sm::workloads::generate(l, sm::workloads::iscas85_profile("c432"), 5);
  const auto r = sm::sim::compare(nl, nl, 100, 3);
  EXPECT_EQ(r.patterns, 100u);
}

TEST_F(SimTest, CompareRejectsMismatchedInterfaces) {
  CellLibrary l;
  sm::workloads::GenSpec s1;
  s1.num_pi = 4; s1.num_po = 2; s1.num_gates = 10;
  sm::workloads::GenSpec s2 = s1;
  s2.num_pi = 5;
  const auto a = sm::workloads::generate(l, s1, 1);
  const auto b = sm::workloads::generate(l, s2, 1);
  EXPECT_THROW(sm::sim::compare(a, b, 64, 0), std::invalid_argument);
}

TEST_F(SimTest, DffActsAsCutPoint) {
  // a -> INV -> ff -> INV -> y. Observers: y (PO side) and ff.D;
  // sources: a and ff.Q. The two stages are independent.
  CellLibrary l;
  Netlist nl(l, "seq");
  const NetId a = nl.add_primary_input("a");
  const CellId i1 = nl.add_cell("i1", l.id_of("INV_X1"));
  nl.connect_input(i1, 0, a);
  const CellId ff = nl.add_cell("ff", l.dff());
  nl.connect_input(ff, 0, nl.cell(i1).output);
  const CellId i2 = nl.add_cell("i2", l.id_of("INV_X1"));
  nl.connect_input(i2, 0, nl.cell(ff).output);
  nl.add_primary_output("y", nl.cell(i2).output);

  Simulator s(nl);
  EXPECT_EQ(s.num_sources(), 2u);    // a + ff.Q
  EXPECT_EQ(s.num_observers(), 2u);  // y + ff.D
  std::vector<std::uint64_t> out;
  s.eval({0xF0F0, 0x00FF}, out);
  EXPECT_EQ(out.at(0) & 0xFFFF, 0xFF00u);  // y = ~ff.Q
  EXPECT_EQ(out.at(1) & 0xFFFF, 0x0F0Fu);  // ff.D = ~a
}

TEST_F(SimTest, ToggleRatesBounded) {
  CellLibrary l;
  const auto nl = sm::workloads::generate(l, sm::workloads::iscas85_profile("c880"), 2);
  const auto act = sm::sim::toggle_rates(nl, 4096, 5);
  ASSERT_EQ(act.size(), nl.num_nets());
  double max_act = 0.0;
  for (double a : act) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 0.5);
    max_act = std::max(max_act, a);
  }
  EXPECT_GT(max_act, 0.3);  // PIs toggle near 0.5
}

TEST_F(SimTest, EvalLanesMatchesScalarEval) {
  // eval_lanes<W> on a structure-of-arrays stimulus must reproduce W
  // independent scalar eval() calls word for word — the lane loop changes
  // the memory walk, never the logic.
  CellLibrary l;
  const auto nl = sm::workloads::generate(
      l, sm::workloads::iscas85_profile("c432"), 5);
  Simulator s(nl);
  constexpr std::size_t W = 4;
  sm::util::Rng rng(99);
  std::vector<std::uint64_t> soa(s.num_sources() * W);
  for (auto& w : soa) w = rng();
  std::vector<std::uint64_t> wide_out, wide_vals;
  s.eval_lanes<W>(soa, wide_out, wide_vals);
  ASSERT_EQ(wide_out.size(), s.num_observers() * W);
  for (std::size_t j = 0; j < W; ++j) {
    std::vector<std::uint64_t> lane_src(s.num_sources());
    for (std::size_t i = 0; i < lane_src.size(); ++i)
      lane_src[i] = soa[i * W + j];
    std::vector<std::uint64_t> out;
    s.eval(lane_src, out);
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], wide_out[i * W + j]) << "lane " << j << " obs " << i;
  }
}

TEST_F(SimTest, CompareLanesBitIdentical) {
  // The ISSUE-10 lane contract: every lane width draws the same per-block
  // task_seed stream in the same word-major order, so OER/HD are bitwise
  // equal for lanes 1, 4, and 8 — including a partial tail block whose
  // word count is not a lane multiple (9000 patterns = 141 words = 2 full
  // blocks + 13 tail words). XOR vs AND agree only on a stream-dependent
  // subset of patterns, so any drift in the stimuli would move OER/HD.
  CellLibrary l;
  auto build = [&](const char* type) {
    Netlist nl(l, type);
    const NetId i0 = nl.add_primary_input("i0");
    const NetId i1 = nl.add_primary_input("i1");
    const CellId g = nl.add_cell("g", l.id_of(type));
    nl.connect_input(g, 0, i0);
    nl.connect_input(g, 1, i1);
    nl.add_primary_output("y", nl.cell(g).output);
    return nl;
  };
  const auto a = build("XOR2_X1");
  const auto b = build("AND2_X1");
  const auto ref = sm::sim::compare(a, b, 9000, 7, 1);
  EXPECT_EQ(ref.patterns, 9000u);
  EXPECT_GT(ref.oer, 0.0);  // genuinely stream-sensitive rig
  EXPECT_LT(ref.oer, 1.0);
  for (const std::size_t lanes : {4ul, 8ul}) {
    const auto r = sm::sim::compare(a, b, 9000, 7, lanes);
    EXPECT_EQ(r.patterns, ref.patterns) << "lanes " << lanes;
    EXPECT_EQ(r.oer, ref.oer) << "lanes " << lanes;  // bitwise, not NEAR
    EXPECT_EQ(r.hd, ref.hd) << "lanes " << lanes;
  }
  // The default width (lanes = 0) is one of the identical widths.
  const auto rd = sm::sim::compare(a, b, 9000, 7, 0);
  EXPECT_EQ(rd.oer, ref.oer);
  EXPECT_EQ(rd.hd, ref.hd);
}

TEST_F(SimTest, ToggleRatesLanesBitIdentical) {
  CellLibrary l;
  const auto nl = sm::workloads::generate(
      l, sm::workloads::iscas85_profile("c880"), 2);
  const auto ref = sm::sim::toggle_rates(nl, 20000, 5, 1);
  for (const std::size_t lanes : {4ul, 8ul}) {
    const auto r = sm::sim::toggle_rates(nl, 20000, 5, lanes);
    ASSERT_EQ(r.size(), ref.size());
    for (std::size_t n = 0; n < r.size(); ++n)
      ASSERT_EQ(r[n], ref[n]) << "lanes " << lanes << " net " << n;
  }
}

TEST_F(SimTest, LaneWidthValidated) {
  CellLibrary l;
  const auto nl = sm::workloads::generate(
      l, sm::workloads::iscas85_profile("c432"), 5);
  EXPECT_THROW(sm::sim::compare(nl, nl, 64, 0, 3), std::invalid_argument);
  EXPECT_THROW(sm::sim::toggle_rates(nl, 64, 0, 16),
               std::invalid_argument);
}

TEST_F(SimTest, DeterministicAcrossRuns) {
  CellLibrary l;
  const auto nl = sm::workloads::generate(l, sm::workloads::iscas85_profile("c1355"), 8);
  auto mutate = nl.clone();
  // Swap two sinks to create a different netlist, then check OER stability.
  const auto r1 = sm::sim::compare(nl, nl, 5000, 77);
  const auto r2 = sm::sim::compare(nl, nl, 5000, 77);
  EXPECT_DOUBLE_EQ(r1.hd, r2.hd);
  EXPECT_DOUBLE_EQ(r1.oer, r2.oer);
  (void)mutate;
}

}  // namespace
