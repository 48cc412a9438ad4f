// Unit tests for sm::util — RNG determinism/uniformity, geometry, stats,
// table rendering, CLI argument parsing, and the radix queue against an
// ordered-set reference.
#include "util/args.hpp"
#include "util/geometry.hpp"
#include "util/radix_queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

namespace {

using namespace sm::util;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(5);
    ASSERT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(9);
  const auto s = rng.sample_indices(100, 10);
  ASSERT_EQ(s.size(), 10u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesClampsToN) {
  Rng rng(9);
  const auto s = rng.sample_indices(4, 10);
  EXPECT_EQ(s.size(), 4u);
}

TEST(Geometry, ManhattanAndEuclidean) {
  const Point a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
}

TEST(Geometry, RectBasics) {
  Rect r{{0, 0}, {10, 4}};
  EXPECT_DOUBLE_EQ(r.width(), 10.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 40.0);
  EXPECT_DOUBLE_EQ(r.half_perimeter(), 14.0);
  EXPECT_TRUE(r.contains({5, 2}));
  EXPECT_FALSE(r.contains({11, 2}));
  EXPECT_EQ(r.center(), (Point{5, 2}));
}

TEST(Geometry, RectExpandAndOverlap) {
  Rect r = Rect::around({1, 1});
  r.expand({5, -2});
  EXPECT_DOUBLE_EQ(r.lo.y, -2.0);
  EXPECT_DOUBLE_EQ(r.hi.x, 5.0);
  const Rect other{{4, 0}, {6, 1}};
  EXPECT_TRUE(r.overlaps(other));
  const Rect far{{100, 100}, {101, 101}};
  EXPECT_FALSE(r.overlaps(far));
}

TEST(Stats, SummaryKnownValues) {
  const auto s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Stats, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(summarize({1, 2, 3, 10}).median, 2.5);
}

TEST(Stats, EmptySample) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, Percentile) {
  std::vector<double> v{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
}

TEST(Stats, HistogramClampsOutliers) {
  Histogram h(0, 10, 5);
  h.add(-100);
  h.add(100);
  h.add(5);
  EXPECT_EQ(h.counts.front(), 1u);
  EXPECT_EQ(h.counts.back(), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Stats, PctDelta) {
  EXPECT_DOUBLE_EQ(pct_delta(100, 130), 30.0);
  EXPECT_DOUBLE_EQ(pct_delta(100, 70), -30.0);
  EXPECT_DOUBLE_EQ(pct_delta(0, 50), 0.0);
}

TEST(Table, RendersAllCells) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"333"});
  const std::string out = t.render();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find("bb"), std::string::npos);
  EXPECT_EQ(t.rows(), 3u);  // separator counts as a row slot
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(12.345, 1), "12.3%");
  EXPECT_EQ(Table::pct_or_na(true, 12.345), "12.3%");
  EXPECT_EQ(Table::pct_or_na(false, 12.345), "n/a");
  EXPECT_EQ(Table::count(1234567), "1,234,567");
  EXPECT_EQ(Table::count(999), "999");
}

TEST(Args, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "pos", "--alpha=3", "--beta", "4", "--flag"};
  Args args(6, argv);
  EXPECT_EQ(args.get_count("alpha", 0), 3u);
  EXPECT_EQ(args.get_count("beta", 0), 4u);
  EXPECT_TRUE(args.get_bool("flag", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Args, Fallbacks) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Args, GetCountRejectsNegativeAndGarbage) {
  const char* argv[] = {"prog",        "--jobs=4",  "--bad=-1",
                        "--worse=abc", "--trail=4x", "--scale=0.25",
                        "--big=inf",   "--nan=nan"};
  Args args(8, argv);
  EXPECT_EQ(args.get_count("jobs", 1), 4u);
  EXPECT_EQ(args.get_count("missing", 7), 7u);
  EXPECT_THROW(args.get_count("bad", 1), std::invalid_argument);
  EXPECT_THROW(args.get_count("worse", 1), std::invalid_argument);
  EXPECT_THROW(args.get_count("trail", 1), std::invalid_argument);
  EXPECT_THROW(args.get_count("scale", 1), std::invalid_argument);
  // get_double parses the whole token too, instead of reading garbage as 0,
  // and takes a sign but only finite numbers.
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_double("bad", 1.0), -1.0);
  EXPECT_THROW(args.get_double("worse", 1.0), std::invalid_argument);
  EXPECT_THROW(args.get_double("trail", 1.0), std::invalid_argument);
  EXPECT_THROW(args.get_double("big", 1.0), std::invalid_argument);
  EXPECT_THROW(args.get_double("nan", 1.0), std::invalid_argument);
  try {
    args.get_count("worse", 1);
    FAIL() << "--worse accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--worse: expected a non-negative integer, got 'abc'");
  }
}

TEST(Args, RejectUnknownNamesTheStrayKey) {
  const char* argv[] = {"prog", "--quick", "--jobs=2", "pos"};
  Args args(4, argv);
  EXPECT_NO_THROW(args.reject_unknown({"jobs", "quick", "seed"}));
  try {
    args.reject_unknown({"quick"});
    FAIL() << "--jobs accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --jobs");
  }
}

TEST(SplitList, SplitsAndSkipsEmptyEntries) {
  EXPECT_EQ(split_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  // Trailing, doubled, and leading separators must not inject "" items
  // (the --benchmarks=c432, regression).
  EXPECT_EQ(split_list("c432,"), (std::vector<std::string>{"c432"}));
  EXPECT_EQ(split_list("a,,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_list(",x"), (std::vector<std::string>{"x"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_TRUE(split_list(",,,").empty());
  EXPECT_EQ(split_list("k=v;w=z", ';'),
            (std::vector<std::string>{"k=v", "w=z"}));
}

TEST(TaskSeed, DeterministicAndIndexSensitive) {
  EXPECT_EQ(task_seed(1, 0), task_seed(1, 0));
  EXPECT_NE(task_seed(1, 0), task_seed(1, 1));
  EXPECT_NE(task_seed(1, 0), task_seed(2, 0));
  // Streams seeded from adjacent task indices must diverge immediately.
  Rng a(task_seed(9, 4)), b(task_seed(9, 5));
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

// ---------------------------------------------------------- RadixQueue ---

// A fixed-seed random interleaving of push, pop and clear() on a RadixQueue
// and on a std::set of (key, id) pairs. Every pop must return the set's
// minimum, and min_key() its key. `draw(rng, last)` makes each pushed key
// from the last popped one; ids are random and never repeat a live pair.
template <typename Draw>
void expect_pops_like_set(std::uint64_t seed, int steps, Draw draw) {
  Rng rng(seed);
  RadixQueue q;
  std::set<std::pair<std::uint64_t, std::uint32_t>> ref;
  std::uint64_t last = 0;
  std::size_t pops = 0, clears = 0;
  for (int step = 0; step < steps; ++step) {
    const auto op = rng.below(100);
    if (op < 2) {
      q.clear();
      ref.clear();
      last = 0;
      ++clears;
    } else if (op < 57 || ref.empty()) {
      const std::uint64_t key = draw(rng, last);
      // Few distinct ids, so equal keys often meet distinct ids.
      const auto id = static_cast<std::uint32_t>(rng.below(64) * 0x3000001u);
      if (!ref.emplace(key, id).second) continue;
      q.push(key, id);
    } else {
      ASSERT_FALSE(q.empty()) << "step " << step;
      const auto expect = *ref.begin();
      ref.erase(ref.begin());
      if (rng.below(2) == 0) {
        ASSERT_EQ(q.min_key(), expect.first) << "step " << step;
      }
      ASSERT_EQ(q.pop(), expect.second) << "step " << step;
      last = expect.first;
      ++pops;
    }
    ASSERT_EQ(q.empty(), ref.empty()) << "step " << step;
  }
  while (!ref.empty()) {
    ASSERT_EQ(q.pop(), ref.begin()->second);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(q.empty());
  // The interleaving really popped and cleared.
  EXPECT_GT(pops, static_cast<std::size_t>(steps) / 4);
  EXPECT_GT(clears, 0u);
}

TEST(RadixQueue, IntegerKeysPopInKeyIdOrder) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  expect_pops_like_set(11, 200000, [&](Rng& rng, std::uint64_t last) {
    switch (rng.below(8)) {
      case 0:
        return last;  // equal to the last pop
      case 1:
        return last - rng.below(last < 16 ? last + 1 : 16);  // just below it
      case 2:
        return last == kTop ? rng() : rng.below(last + 1);  // at or below it
      case 3:
        return std::uint64_t{0};
      case 4:
        return kHalf - 8 + rng.below(16);  // around 2^63
      case 5:
        return kTop - rng.below(8);  // the top of the range
      case 6:
        return last + rng.below(8);  // just above it, with duplicates
      default:
        return last + (rng() >> rng.below(64));  // anywhere above it
    }
  });
}

TEST(RadixQueue, DoubleBitsPopInValueOrder) {
  // The router's keys: the bits of f >= +0.0. +0.0, subnormals, and
  // die-scale path costs g + h, with the next f near the last popped one
  // and sometimes a rounding step below it.
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  expect_pops_like_set(12, 200000, [&](Rng& rng, std::uint64_t last) {
    const double f = std::bit_cast<double>(last);
    switch (rng.below(6)) {
      case 0:
        return bits(0.0);
      case 1:  // subnormals, up to the smallest normal
        return rng.below(std::uint64_t{1} << 52);
      case 2:  // a die-scale path cost, often with a jitter-sized tail
        return bits(static_cast<double>(rng.below(4000)) +
                    (rng.below(2) ? 0.05 * rng.uniform() : 0.0));
      case 3:  // one ulp around the last pop
        return last == 0 ? last : last - 1 + rng.below(3);
      case 4:  // the next step of a search: f + step cost
        return bits(f + static_cast<double>(rng.below(5)));
      default:
        return last;
    }
  });
}

}  // namespace
