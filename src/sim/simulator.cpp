#include "sim/simulator.hpp"

#include "netlist/topo.hpp"

#include <array>
#include <bit>
#include <stdexcept>

// Word-parallel simulation leans on C++20 <bit> (std::popcount); without
// this guard a -std=c++17 build dies deep inside the evaluation loop with
// inscrutable lookup errors.
#if !defined(__cpp_lib_bitops) || __cpp_lib_bitops < 201907L
#error "sm requires C++20 <bit> (std::popcount/std::countr_zero); build with -std=c++20 or newer"
#endif

namespace sm::sim {

using netlist::Cell;
using netlist::CellId;
using netlist::kInvalidNet;
using netlist::LogicFn;
using netlist::Net;
using netlist::NetId;
using netlist::Netlist;

Simulator::Simulator(const Netlist& nl) : nl_(&nl) {
  const auto order = netlist::topological_order(nl);
  if (!order)
    throw std::logic_error("Simulator: netlist has a combinational cycle");
  // Keep only combinational gates in evaluation order; sources/observers are
  // collected separately, in deterministic id order.
  for (const CellId id : *order)
    if (nl.is_combinational(id)) order_.push_back(id);

  for (const CellId pi : nl.primary_inputs()) sources_.push_back(nl.cell(pi).output);
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (nl.is_dff(id)) sources_.push_back(nl.cell(id).output);

  for (const CellId po : nl.primary_outputs())
    observers_.push_back(nl.cell(po).inputs.at(0));
  for (CellId id = 0; id < nl.num_cells(); ++id)
    if (nl.is_dff(id)) observers_.push_back(nl.cell(id).inputs.at(0));

  values_.assign(nl.num_nets(), 0);
}

void Simulator::eval(const std::vector<std::uint64_t>& source_words,
                     std::vector<std::uint64_t>& observer_words) const {
  eval_lanes<1>(source_words, observer_words, values_);
}

template <std::size_t W>
void Simulator::eval_lanes(const std::vector<std::uint64_t>& source_words,
                           std::vector<std::uint64_t>& observer_words,
                           std::vector<std::uint64_t>& values) const {
  if (source_words.size() != sources_.size() * W)
    throw std::invalid_argument("Simulator::eval: source word count mismatch");
  if (values.size() != nl_->num_nets() * W)
    values.assign(nl_->num_nets() * W, 0);
  for (std::size_t i = 0; i < sources_.size(); ++i)
    for (std::size_t j = 0; j < W; ++j)
      values[sources_[i] * W + j] = source_words[i * W + j];

  // Each gate reads/writes W contiguous words; the fixed-trip j-loops below
  // compile to straight-line vector code for W = 4/8.
  const auto in = [&](const Cell& c, std::size_t k) {
    return &values[static_cast<std::size_t>(c.inputs[k]) * W];
  };
  for (const CellId id : order_) {
    const Cell& c = nl_->cell(id);
    const LogicFn fn = nl_->type_of(id).fn;
    std::uint64_t v[W] = {};
    switch (fn) {
      case LogicFn::Const0:
        for (std::size_t j = 0; j < W; ++j) v[j] = 0;
        break;
      case LogicFn::Const1:
        for (std::size_t j = 0; j < W; ++j) v[j] = ~0ULL;
        break;
      case LogicFn::Buf: {
        const std::uint64_t* a = in(c, 0);
        for (std::size_t j = 0; j < W; ++j) v[j] = a[j];
        break;
      }
      case LogicFn::Inv: {
        const std::uint64_t* a = in(c, 0);
        for (std::size_t j = 0; j < W; ++j) v[j] = ~a[j];
        break;
      }
      case LogicFn::And:
      case LogicFn::Nand: {
        for (std::size_t j = 0; j < W; ++j) v[j] = ~0ULL;
        for (const NetId net : c.inputs) {
          const std::uint64_t* a = &values[static_cast<std::size_t>(net) * W];
          for (std::size_t j = 0; j < W; ++j) v[j] &= a[j];
        }
        if (fn == LogicFn::Nand)
          for (std::size_t j = 0; j < W; ++j) v[j] = ~v[j];
        break;
      }
      case LogicFn::Or:
      case LogicFn::Nor: {
        for (std::size_t j = 0; j < W; ++j) v[j] = 0;
        for (const NetId net : c.inputs) {
          const std::uint64_t* a = &values[static_cast<std::size_t>(net) * W];
          for (std::size_t j = 0; j < W; ++j) v[j] |= a[j];
        }
        if (fn == LogicFn::Nor)
          for (std::size_t j = 0; j < W; ++j) v[j] = ~v[j];
        break;
      }
      case LogicFn::Xor: {
        const std::uint64_t* a = in(c, 0);
        const std::uint64_t* b = in(c, 1);
        for (std::size_t j = 0; j < W; ++j) v[j] = a[j] ^ b[j];
        break;
      }
      case LogicFn::Xnor: {
        const std::uint64_t* a = in(c, 0);
        const std::uint64_t* b = in(c, 1);
        for (std::size_t j = 0; j < W; ++j) v[j] = ~(a[j] ^ b[j]);
        break;
      }
      case LogicFn::Aoi21: {
        const std::uint64_t* a = in(c, 0);
        const std::uint64_t* b = in(c, 1);
        const std::uint64_t* s = in(c, 2);
        for (std::size_t j = 0; j < W; ++j) v[j] = ~((a[j] & b[j]) | s[j]);
        break;
      }
      case LogicFn::Oai21: {
        const std::uint64_t* a = in(c, 0);
        const std::uint64_t* b = in(c, 1);
        const std::uint64_t* s = in(c, 2);
        for (std::size_t j = 0; j < W; ++j) v[j] = ~((a[j] | b[j]) & s[j]);
        break;
      }
      case LogicFn::Mux2: {
        const std::uint64_t* a = in(c, 0);
        const std::uint64_t* b = in(c, 1);
        const std::uint64_t* s = in(c, 2);
        for (std::size_t j = 0; j < W; ++j)
          v[j] = (a[j] & ~s[j]) | (b[j] & s[j]);
        break;
      }
      case LogicFn::Dff:
      case LogicFn::Port:
        continue;  // not combinational; handled via sources/observers
    }
    if (c.output != kInvalidNet) {
      std::uint64_t* o = &values[static_cast<std::size_t>(c.output) * W];
      for (std::size_t j = 0; j < W; ++j) o[j] = v[j];
    }
  }

  observer_words.resize(observers_.size() * W);
  for (std::size_t i = 0; i < observers_.size(); ++i)
    for (std::size_t j = 0; j < W; ++j)
      observer_words[i * W + j] = values[observers_[i] * W + j];
}

template void Simulator::eval_lanes<1>(const std::vector<std::uint64_t>&,
                                       std::vector<std::uint64_t>&,
                                       std::vector<std::uint64_t>&) const;
template void Simulator::eval_lanes<4>(const std::vector<std::uint64_t>&,
                                       std::vector<std::uint64_t>&,
                                       std::vector<std::uint64_t>&) const;
template void Simulator::eval_lanes<8>(const std::vector<std::uint64_t>&,
                                       std::vector<std::uint64_t>&,
                                       std::vector<std::uint64_t>&) const;

namespace {

std::size_t words_for(std::size_t patterns) { return (patterns + 63) / 64; }

constexpr std::size_t kWordsPerBlock = kPatternsPerBlock / 64;
static_assert(kPatternsPerBlock % 64 == 0);
// Every supported lane width tiles a block exactly, so lane groups never
// straddle a block (= RNG stream) boundary.
static_assert(kWordsPerBlock % kDefaultSimLanes == 0);

std::size_t blocks_for(std::size_t patterns) {
  return (words_for(patterns) + kWordsPerBlock - 1) / kWordsPerBlock;
}

/// Drive `fn(batch_total, masks)` for every W-word lane group of block `b`,
/// with the block's own task_seed RNG stream. The stream is drawn word-major
/// then source-major — exactly the order the scalar path consumed it — so
/// the (block, word) -> stimulus mapping is byte-identical for every lane
/// width. Tail lanes past the last pattern word are zero-filled without
/// consuming RNG draws and masked out.
template <std::size_t W, class Fn>
void run_block_lanes(std::size_t b, std::size_t patterns, std::uint64_t seed,
                     std::vector<std::uint64_t>& src, std::size_t num_sources,
                     Fn&& fn) {
  util::Rng rng(util::task_seed(seed, b));
  const std::size_t w_end =
      std::min(words_for(patterns), (b + 1) * kWordsPerBlock);
  for (std::size_t w = b * kWordsPerBlock; w < w_end; w += W) {
    const std::size_t real = std::min(W, w_end - w);
    if (real < W) std::fill(src.begin(), src.end(), 0);
    for (std::size_t j = 0; j < real; ++j)
      for (std::size_t i = 0; i < num_sources; ++i) src[i * W + j] = rng();
    std::array<std::uint64_t, W> masks;
    std::size_t batch_total = 0;
    for (std::size_t j = 0; j < W; ++j) {
      if (j >= real) {
        masks[j] = 0;
        continue;
      }
      const std::size_t batch =
          std::min<std::size_t>(64, patterns - (w + j) * 64);
      masks[j] = batch == 64 ? ~0ULL : ((1ULL << batch) - 1);
      batch_total += batch;
    }
    fn(batch_total, masks);
  }
}

template <std::size_t W>
ErrorRates compare_lanes(const Netlist& golden, const Netlist& dut,
                         std::size_t patterns, std::uint64_t seed) {
  Simulator sg(golden);
  Simulator sd(dut);
  if (sg.num_sources() != sd.num_sources() ||
      sg.num_observers() != sd.num_observers())
    throw std::invalid_argument("compare: source/observer count mismatch");

  std::size_t wrong_bits = 0, wrong_patterns = 0, total_patterns = 0;
  std::vector<std::uint64_t> src(sg.num_sources() * W);
  std::vector<std::uint64_t> out_g, out_d, val_g, val_d;
  for (std::size_t b = 0; b < blocks_for(patterns); ++b)
    run_block_lanes<W>(
        b, patterns, seed, src, sg.num_sources(),
        [&](std::size_t batch_total, const std::array<std::uint64_t, W>& m) {
          sg.eval_lanes<W>(src, out_g, val_g);
          sd.eval_lanes<W>(src, out_d, val_d);
          std::uint64_t any_diff[W] = {};
          std::size_t group_bits = 0;
          for (std::size_t i = 0; i < sg.num_observers(); ++i)
            for (std::size_t j = 0; j < W; ++j) {
              const std::uint64_t diff =
                  (out_g[i * W + j] ^ out_d[i * W + j]) & m[j];
              group_bits += static_cast<std::size_t>(std::popcount(diff));
              any_diff[j] |= diff;
            }
          wrong_bits += group_bits;
          for (std::size_t j = 0; j < W; ++j)
            wrong_patterns +=
                static_cast<std::size_t>(std::popcount(any_diff[j]));
          total_patterns += batch_total;
        });

  ErrorRates r;
  r.patterns = total_patterns;
  if (total_patterns == 0 || sg.num_observers() == 0) return r;
  r.oer = static_cast<double>(wrong_patterns) / static_cast<double>(total_patterns);
  r.hd = static_cast<double>(wrong_bits) /
         static_cast<double>(total_patterns * sg.num_observers());
  return r;
}

template <std::size_t W>
std::vector<double> toggle_rates_lanes(const Netlist& nl,
                                       std::size_t patterns,
                                       std::uint64_t seed) {
  Simulator s(nl);
  std::vector<std::size_t> ones(nl.num_nets(), 0);
  std::size_t total = 0;
  std::vector<std::uint64_t> src(s.num_sources() * W);
  std::vector<std::uint64_t> out, vals;
  for (std::size_t b = 0; b < blocks_for(patterns); ++b)
    run_block_lanes<W>(
        b, patterns, seed, src, s.num_sources(),
        [&](std::size_t batch_total, const std::array<std::uint64_t, W>& m) {
          s.eval_lanes<W>(src, out, vals);
          for (NetId n = 0; n < nl.num_nets(); ++n) {
            std::size_t c = 0;
            for (std::size_t j = 0; j < W; ++j)
              c += static_cast<std::size_t>(std::popcount(vals[n * W + j] & m[j]));
            ones[n] += c;
          }
          total += batch_total;
        });
  std::vector<double> act(nl.num_nets(), 0.0);
  if (total == 0) return act;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const double p = static_cast<double>(ones[n]) / static_cast<double>(total);
    act[n] = 2.0 * p * (1.0 - p);  // random-stimulus switching probability
  }
  return act;
}

std::size_t resolve_lanes(std::size_t lanes) {
  const std::size_t w = lanes == 0 ? kDefaultSimLanes : lanes;
  if (w != 1 && w != 4 && w != 8)
    throw std::invalid_argument("sim lanes must be 1, 4, or 8");
  return w;
}

}  // namespace

ErrorRates compare(const Netlist& golden, const Netlist& dut,
                   std::size_t patterns, std::uint64_t seed,
                   std::size_t lanes) {
  switch (resolve_lanes(lanes)) {
    case 1: return compare_lanes<1>(golden, dut, patterns, seed);
    case 4: return compare_lanes<4>(golden, dut, patterns, seed);
    default: return compare_lanes<8>(golden, dut, patterns, seed);
  }
}

bool equivalent(const Netlist& a, const Netlist& b, std::size_t patterns,
                std::uint64_t seed) {
  const ErrorRates r = compare(a, b, patterns, seed);
  return r.oer == 0.0;
}

std::vector<double> toggle_rates(const Netlist& nl, std::size_t patterns,
                                 std::uint64_t seed, std::size_t lanes) {
  switch (resolve_lanes(lanes)) {
    case 1: return toggle_rates_lanes<1>(nl, patterns, seed);
    case 4: return toggle_rates_lanes<4>(nl, patterns, seed);
    default: return toggle_rates_lanes<8>(nl, patterns, seed);
  }
}

}  // namespace sm::sim
