// Randomizer tests: swap mechanics, loop avoidance, OER-driven stopping,
// ledger bookkeeping, and restoration equivalence (the paper's core loop).
#include "core/randomizer.hpp"
#include "netlist/topo.hpp"
#include "sim/simulator.hpp"
#include "util/config_hash.hpp"
#include "workloads/generator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace {

using namespace sm::core;
using sm::netlist::CellLibrary;
using sm::netlist::Netlist;

class RandomizerTest : public ::testing::Test {
 protected:
  CellLibrary lib;
  Netlist bench() const {
    return sm::workloads::generate(lib, sm::workloads::iscas85_profile("c880"), 3);
  }
};

TEST_F(RandomizerTest, ReachesHighOer) {
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.target_oer = 0.99;
  opts.seed = 11;
  const auto result = randomize(original, opts);
  EXPECT_GE(result.oer, 0.99);
  EXPECT_GT(result.swaps, 0u);
  EXPECT_GT(result.hd, 0.0);
  EXPECT_EQ(result.ledger.entries.size(), result.swaps);
}

TEST_F(RandomizerTest, ErroneousNetlistStaysAcyclicAndValid) {
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.max_swaps = 200;
  opts.target_oer = 2.0;  // exhaust the budget
  opts.seed = 5;
  const auto result = randomize(original, opts);
  EXPECT_NO_THROW(result.erroneous.validate());
  EXPECT_TRUE(sm::netlist::is_acyclic(result.erroneous));
  EXPECT_EQ(result.swaps, 200u);
}

TEST_F(RandomizerTest, InterfacePreserved) {
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.seed = 7;
  const auto result = randomize(original, opts);
  EXPECT_EQ(result.erroneous.num_cells(), original.num_cells());
  EXPECT_EQ(result.erroneous.num_nets(), original.num_nets());
  EXPECT_EQ(result.erroneous.primary_inputs(), original.primary_inputs());
  EXPECT_EQ(result.erroneous.primary_outputs(), original.primary_outputs());
}

TEST_F(RandomizerTest, RestorationIsExact) {
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.seed = 13;
  auto result = randomize(original, opts);
  // The erroneous netlist differs...
  EXPECT_GT(result.oer, 0.5);
  // ...and restoring through the ledger recovers the exact connectivity.
  restore_netlist(result.erroneous, result.ledger);
  for (sm::netlist::CellId c = 0; c < original.num_cells(); ++c)
    EXPECT_EQ(result.erroneous.cell(c).inputs, original.cell(c).inputs);
  EXPECT_TRUE(sm::sim::equivalent(original, result.erroneous, 4096, 1));
}

TEST_F(RandomizerTest, DeterministicForSeed) {
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.seed = 21;
  const auto a = randomize(original, opts);
  const auto b = randomize(original, opts);
  EXPECT_EQ(a.swaps, b.swaps);
  EXPECT_DOUBLE_EQ(a.oer, b.oer);
  ASSERT_EQ(a.ledger.entries.size(), b.ledger.entries.size());
  for (std::size_t i = 0; i < a.ledger.entries.size(); ++i) {
    EXPECT_EQ(a.ledger.entries[i].net_a, b.ledger.entries[i].net_a);
    EXPECT_EQ(a.ledger.entries[i].sink_a, b.ledger.entries[i].sink_a);
  }
}

TEST_F(RandomizerTest, LedgerProtectedNetsUniqueAndTouched) {
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.seed = 2;
  const auto result = randomize(original, opts);
  const auto nets = result.ledger.protected_nets();
  ASSERT_FALSE(nets.empty());
  for (std::size_t i = 1; i < nets.size(); ++i) EXPECT_LT(nets[i - 1], nets[i]);
  for (const auto n : nets) EXPECT_LT(n, original.num_nets());
}

TEST_F(RandomizerTest, TrueConnectionsPointAtOriginalNets) {
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.seed = 31;
  opts.max_swaps = 50;
  const auto result = randomize(original, opts);
  for (const auto& [net, sink] : result.ledger.true_connections()) {
    // The recorded true source must equal the original netlist connection.
    EXPECT_EQ(original.cell(sink.cell).inputs.at(
                  static_cast<std::size_t>(sink.pin)),
              net);
  }
}

TEST_F(RandomizerTest, SwapsChangeFunctionImmediately) {
  // Even a handful of swaps must produce nonzero OER on this XOR-rich logic.
  const Netlist original = bench();
  RandomizeOptions opts;
  opts.min_swaps = 2;
  opts.max_swaps = 8;
  opts.target_oer = 0.0;  // stop at first check
  opts.seed = 17;
  const auto result = randomize(original, opts);
  EXPECT_GT(result.oer, 0.0);
}

TEST_F(RandomizerTest, SequentialBenchmarkSupported) {
  const auto original = sm::workloads::generate(
      lib, sm::workloads::superblue_profile("superblue18", 0.003), 4);
  RandomizeOptions opts;
  opts.seed = 9;
  const auto result = randomize(original, opts);
  EXPECT_GE(result.oer, 0.9);
  EXPECT_TRUE(sm::netlist::is_acyclic(result.erroneous));
  auto restored = result.erroneous.clone();
  restore_netlist(restored, result.ledger);
  EXPECT_TRUE(sm::sim::equivalent(original, restored, 2048, 3));
}

// randomize() on two designs, pinned to literal results. Every swap it
// accepts first passes the loop check, so a change in which swaps pass
// moves these pins; DeterministicForSeed, which compares two runs of one
// build, cannot see that. They move only when the generator or the
// randomizer's draws do.
class RandomizerPins : public RandomizerTest {
 protected:
  struct Pin {
    std::size_t swaps;
    double oer, hd;
    std::uint64_t ledger_hash;
  };
  static std::uint64_t ledger_hash(const SwapLedger& ledger) {
    std::string text;
    for (const auto& e : ledger.entries)
      text += std::to_string(e.net_a) + ":" + std::to_string(e.sink_a.cell) +
              "." + std::to_string(e.sink_a.pin) + " " +
              std::to_string(e.net_b) + ":" + std::to_string(e.sink_b.cell) +
              "." + std::to_string(e.sink_b.pin) + "\n";
    return sm::util::fnv1a64(text);
  }
  static void expect_pinned(const Netlist& original,
                            const RandomizeOptions& opts,
                            const Pin& pin) {
    const auto result = randomize(original, opts);
    EXPECT_EQ(result.swaps, pin.swaps);
    EXPECT_EQ(result.oer, pin.oer);
    EXPECT_EQ(result.hd, pin.hd);
    EXPECT_EQ(ledger_hash(result.ledger), pin.ledger_hash);
  }
};

TEST_F(RandomizerPins, C880) {
  // At least 150 swaps: the default minimum (gates / 30) stops at 12.
  RandomizeOptions opts;
  opts.seed = 3;
  opts.min_swaps = 150;
  expect_pinned(bench(), opts,
                {152, 1.0, 0.47693810096153844, 7386452557324515331ULL});
}

TEST_F(RandomizerPins, SequentialSuperblue18) {
  const auto original = sm::workloads::generate(
      lib, sm::workloads::superblue_profile("superblue18", 0.003), 4);
  RandomizeOptions opts;
  opts.seed = 4;
  expect_pinned(original, opts,
                {68, 1.0, 0.25694335937500001, 3276615345837558710ULL});
}

}  // namespace
