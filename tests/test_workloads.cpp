// Workload generator tests: structural parameters, connectivity, determinism,
// and parameterized sweeps over all named profiles.
#include "netlist/topo.hpp"
#include "sim/simulator.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace sm::workloads;
using sm::netlist::CellLibrary;
using sm::netlist::Netlist;

TEST(Workloads, DeterministicForSeed) {
  CellLibrary lib;
  const auto a = generate(lib, iscas85_profile("c432"), 11);
  const auto b = generate(lib, iscas85_profile("c432"), 11);
  ASSERT_EQ(a.num_cells(), b.num_cells());
  for (std::size_t i = 0; i < a.num_cells(); ++i) {
    EXPECT_EQ(a.cell(i).type, b.cell(i).type);
    EXPECT_EQ(a.cell(i).inputs, b.cell(i).inputs);
  }
  EXPECT_TRUE(sm::sim::equivalent(a, b, 1024, 3));
}

TEST(Workloads, DifferentSeedsGiveDifferentCircuits) {
  CellLibrary lib;
  const auto a = generate(lib, iscas85_profile("c432"), 1);
  const auto b = generate(lib, iscas85_profile("c432"), 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < std::min(a.num_cells(), b.num_cells()); ++i)
    if (a.cell(i).inputs != b.cell(i).inputs) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Workloads, RejectsBadSpec) {
  CellLibrary lib;
  GenSpec s;
  s.num_pi = 0;
  EXPECT_THROW(generate(lib, s, 0), std::invalid_argument);
  EXPECT_THROW(iscas85_profile("c9999"), std::invalid_argument);
  EXPECT_THROW(superblue_profile("superblue99"), std::invalid_argument);
  EXPECT_THROW(superblue_profile("superblue1", 0.0), std::invalid_argument);
  EXPECT_THROW(superblue_profile("superblue1", 1.5), std::invalid_argument);
  EXPECT_THROW(superblue_profile("superblue1", std::nan("")),
               std::invalid_argument);
}

class IscasProfiles : public ::testing::TestWithParam<std::string> {};

TEST_P(IscasProfiles, MatchesPublishedParameters) {
  CellLibrary lib;
  const GenSpec spec = iscas85_profile(GetParam());
  const Netlist nl = generate(lib, spec, 42);
  nl.validate();
  EXPECT_EQ(nl.primary_inputs().size(), static_cast<std::size_t>(spec.num_pi));
  // Generator may add a few extra observer ports for sinkless nets.
  EXPECT_GE(nl.primary_outputs().size(), static_cast<std::size_t>(spec.num_po));
  EXPECT_LE(nl.primary_outputs().size(),
            static_cast<std::size_t>(spec.num_po) + 64u);
  EXPECT_EQ(nl.num_gates(), static_cast<std::size_t>(spec.num_gates));
  EXPECT_TRUE(sm::netlist::is_acyclic(nl));
  // ISCAS-85 is combinational.
  for (sm::netlist::CellId c = 0; c < nl.num_cells(); ++c)
    EXPECT_FALSE(nl.is_dff(c));
}

TEST_P(IscasProfiles, EveryNetObservable) {
  CellLibrary lib;
  const Netlist nl = generate(lib, iscas85_profile(GetParam()), 7);
  for (sm::netlist::NetId n = 0; n < nl.num_nets(); ++n)
    EXPECT_FALSE(nl.net(n).sinks.empty())
        << "net " << nl.net(n).name << " has no sinks";
}

TEST_P(IscasProfiles, SimulatableAndNonConstant) {
  CellLibrary lib;
  const Netlist nl = generate(lib, iscas85_profile(GetParam()), 3);
  sm::sim::Simulator s(nl);
  std::vector<std::uint64_t> in(s.num_sources()), out, out2;
  sm::util::Rng rng(5);
  for (auto& w : in) w = rng();
  s.eval(in, out);
  for (auto& w : in) w = rng();
  s.eval(in, out2);
  // At least one observer reacts to input changes (overwhelmingly likely).
  bool any = false;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] != out2[i]) any = true;
  EXPECT_TRUE(any);
}

INSTANTIATE_TEST_SUITE_P(AllIscas, IscasProfiles,
                         ::testing::ValuesIn(iscas85_names()),
                         [](const auto& info) { return info.param; });

class SuperblueProfiles : public ::testing::TestWithParam<std::string> {};

TEST_P(SuperblueProfiles, ScaledGenerationIsSane) {
  CellLibrary lib;
  const double scale = 0.004;  // keep unit tests fast
  const GenSpec spec = superblue_profile(GetParam(), scale);
  const Netlist nl = generate(lib, spec, 42);
  nl.validate();
  EXPECT_TRUE(sm::netlist::is_acyclic(nl));
  EXPECT_EQ(nl.num_gates(), static_cast<std::size_t>(spec.num_gates));
  // Sequential share lands near the spec.
  std::size_t dffs = 0;
  for (sm::netlist::CellId c = 0; c < nl.num_cells(); ++c)
    if (nl.is_dff(c)) ++dffs;
  const double frac = static_cast<double>(dffs) /
                      static_cast<double>(nl.num_gates());
  EXPECT_NEAR(frac, spec.dff_fraction, 0.02);
  EXPECT_GT(spec.utilization, 0.5);
  EXPECT_LT(spec.utilization, 0.8);
}

TEST_P(SuperblueProfiles, ScaleControlsSize) {
  const auto small = superblue_profile(GetParam(), 0.002);
  const auto large = superblue_profile(GetParam(), 0.01);
  EXPECT_LT(small.num_gates, large.num_gates);
  EXPECT_LE(small.num_pi, large.num_pi);
}

INSTANTIATE_TEST_SUITE_P(AllSuperblue, SuperblueProfiles,
                         ::testing::ValuesIn(superblue_names()),
                         [](const auto& info) { return info.param; });

TEST(Workloads, SequentialCircuitsSimulate) {
  CellLibrary lib;
  const auto nl = generate(lib, superblue_profile("superblue18", 0.003), 1);
  sm::sim::Simulator s(nl);
  EXPECT_GT(s.num_sources(), nl.primary_inputs().size());  // DFF outputs add sources
  const auto r = sm::sim::compare(nl, nl, 640, 4);
  EXPECT_DOUBLE_EQ(r.oer, 0.0);
}

TEST(Workloads, SyntheticLadderScalesPastTheSuites) {
  // The ladder is strictly increasing and starts above the largest ISCAS
  // clone (c7552: 3512 gates) from its second rung.
  int prev = 0;
  for (const auto& name : synthetic_names()) {
    const auto spec = synthetic_profile(name);
    EXPECT_GT(spec.num_gates, prev) << name;
    prev = spec.num_gates;
  }
  EXPECT_GT(synthetic_profile("synth4k").num_gates, 3512);
  EXPECT_GE(synthetic_profile("synth128k").num_gates, 128000);
  // Scale shrinks like superblue: gates linearly, I/O with sqrt.
  const auto small = synthetic_profile("synth16k", 0.01);
  const auto full = synthetic_profile("synth16k", 1.0);
  EXPECT_LT(small.num_gates, full.num_gates);
  EXPECT_LT(small.num_pi, full.num_pi);
  EXPECT_THROW(synthetic_profile("synth9k"), std::invalid_argument);
  EXPECT_THROW(synthetic_profile("synth4k", 0.0), std::invalid_argument);
  EXPECT_THROW(synthetic_profile("synth4k", 1.5), std::invalid_argument);
  EXPECT_THROW(synthetic_profile("synth4k", std::nan("")),
               std::invalid_argument);
}

TEST(Workloads, SyntheticProfilesGenerateValidNetlists) {
  CellLibrary lib;
  const auto spec = synthetic_profile("synth1k", 0.25);
  const auto nl = generate(lib, spec, 3);  // validate() runs inside
  EXPECT_GE(nl.num_gates(), 200u);
  // Deterministic in (spec, seed) like every other profile.
  const auto again = generate(lib, spec, 3);
  EXPECT_EQ(nl.num_gates(), again.num_gates());
  EXPECT_EQ(nl.num_nets(), again.num_nets());
}

TEST(Workloads, FanoutRespectsLimits) {
  CellLibrary lib;
  GenSpec s;
  s.num_pi = 20;
  s.num_po = 10;
  s.num_gates = 500;
  s.max_fanout = 8;
  const auto nl = generate(lib, s, 13);
  // Fanout limit is advisory for connectivity repair, but the bulk of nets
  // must stay moderate.
  std::size_t big = 0;
  for (sm::netlist::NetId n = 0; n < nl.num_nets(); ++n)
    if (nl.net(n).sinks.size() > 16) ++big;
  EXPECT_LT(big, nl.num_nets() / 10);
}

}  // namespace
