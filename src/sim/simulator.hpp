// Bit-parallel logic simulation.
//
// The paper computes OER (output error rate) and HD (Hamming distance)
// with Synopsys VCS over 1,000,000 random test patterns. We evaluate 64
// patterns per machine word with a levelized netlist walk — exact, fast,
// and deterministic given a seed.
//
// Sequential handling: DFF outputs are treated as pseudo primary inputs
// (driven with random patterns) and DFF inputs as pseudo primary outputs
// (included in the HD/OER comparison). This is the standard combinational-
// core comparison and is well-defined here because the randomization defense
// never adds or removes cells — original and erroneous netlists always have
// identical DFF sets.
//
// Pattern blocks: compare() and toggle_rates() group pattern words into
// fixed-size blocks (kPatternsPerBlock patterns each). Every block draws its
// stimuli from an independent RNG stream seeded with util::task_seed(seed,
// block_index). The block partition is a function of the pattern count
// alone, so it fixes every stimulus, and the popcounts reduce to integer
// sums.
#pragma once

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

#include <cstdint>
#include <vector>

namespace sm::sim {

/// Compiled evaluator for one netlist. Construction levelizes once; eval()
/// may then be called repeatedly with different pattern words.
class Simulator {
 public:
  explicit Simulator(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return *nl_; }

  /// Number of pattern sources: primary inputs + DFF outputs.
  std::size_t num_sources() const { return sources_.size(); }
  /// Number of observation points: primary outputs + DFF inputs.
  std::size_t num_observers() const { return observers_.size(); }

  /// Evaluate one 64-pattern batch. `source_words` has num_sources() words
  /// (bit b of word i = value of source i under pattern b); `observer_words`
  /// receives num_observers() words.
  void eval(const std::vector<std::uint64_t>& source_words,
            std::vector<std::uint64_t>& observer_words) const;

  /// Wide-lane evaluation: W pattern words (64*W patterns) per call, laid
  /// out structure-of-arrays — source i's words at source_words[i*W..i*W+W),
  /// net n's words at values[n*W..n*W+W) — so every gate touches W
  /// contiguous words and the levelized walk auto-vectorizes. Instantiated
  /// for W = 1, which is eval(), and W = kSimLanes, which compare() and
  /// toggle_rates() run.
  template <std::size_t W>
  void eval_lanes(const std::vector<std::uint64_t>& source_words,
                  std::vector<std::uint64_t>& observer_words,
                  std::vector<std::uint64_t>& values) const;

 private:
  const netlist::Netlist* nl_;
  std::vector<netlist::CellId> order_;        ///< combinational eval order
  std::vector<netlist::NetId> sources_;       ///< nets driven by PI/DFF-out
  std::vector<netlist::NetId> observers_;     ///< nets feeding PO/DFF-in
  mutable std::vector<std::uint64_t> values_; ///< per-net 64-pattern word
};

/// OER/HD between a golden netlist and a device-under-test, stimulated with
/// identical random patterns.
struct ErrorRates {
  double oer = 0.0;        ///< fraction of patterns with >=1 wrong observer bit
  double hd = 0.0;         ///< fraction of wrong observer bits overall
  std::size_t patterns = 0;
};

/// Patterns per RNG block of compare()/toggle_rates(); the block partition
/// (and therefore every metric) depends on the pattern count alone.
inline constexpr std::size_t kPatternsPerBlock = 4096;

/// Pattern words compare()/toggle_rates() evaluate per levelized walk.
/// Each block draws its util::task_seed RNG stream word-major, then
/// source-major, so the (block, word) -> stimulus mapping is the one a
/// scalar word-by-word walk would draw.
inline constexpr std::size_t kSimLanes = 8;

/// Compare two netlists with `patterns` random stimuli (rounded up to a
/// multiple of 64). Requires matching source/observer counts (the
/// randomization defense preserves them). Throws std::invalid_argument
/// otherwise.
ErrorRates compare(const netlist::Netlist& golden, const netlist::Netlist& dut,
                   std::size_t patterns, std::uint64_t seed);

/// True when `patterns` random stimuli produce identical observer responses.
/// (Simulation-based equivalence; exhaustive when the netlist has <= 20
/// sources and patterns >= 2^sources.)
bool equivalent(const netlist::Netlist& a, const netlist::Netlist& b,
                std::size_t patterns, std::uint64_t seed);

/// Per-net switching activity estimate: 2*p*(1-p) where p is the signal
/// probability measured over `patterns` random stimuli, drawn as in
/// compare(). Used for dynamic power in sm::timing.
std::vector<double> toggle_rates(const netlist::Netlist& nl,
                                 std::size_t patterns, std::uint64_t seed);

}  // namespace sm::sim
