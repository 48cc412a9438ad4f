// Unit tests for util::parallel_for — the exactly-once contract, exception
// propagation (lowest failing index wins, remaining tasks still run), the
// single-job path staying on the calling thread, and thread-count-independent
// results via util::task_seed.
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using namespace sm::util;

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for(4, kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, ZeroTasksIsANoop) {
  parallel_for(4, 0, [&](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, LowestFailingIndexWinsAndEveryTaskStillRuns) {
  constexpr std::size_t kN = 600;
  std::vector<std::atomic<int>> counts(kN);
  try {
    parallel_for(4, kN, [&](std::size_t i) {
      counts[i].fetch_add(1);
      if (i == 3 || i == 7 || i == 500)
        throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelFor, SingleJobRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(50);
  parallel_for(1, ran_on.size(),
               [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, SerialPathKeepsTheSameExceptionRule) {
  std::vector<int> ran(10, 0);
  try {
    parallel_for(1, 10, [&](std::size_t i) {
      ran[i] = 1;
      if (i == 2 || i == 8) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "2");
  }
  for (const int r : ran) EXPECT_EQ(r, 1);
}

// The determinism contract the sweep subsystem rests on: per-task randomness
// derived from (master seed, task index) gives bit-identical results for any
// thread count.
TEST(ParallelFor, TaskSeededResultsAreThreadCountInvariant) {
  constexpr std::size_t kN = 257;
  constexpr std::uint64_t kMaster = 42;
  auto run = [&](std::size_t jobs) {
    std::vector<std::uint64_t> out(kN);
    parallel_for(jobs, kN, [&](std::size_t i) {
      Rng rng(task_seed(kMaster, i));
      std::uint64_t acc = 0;
      for (int k = 0; k < 100; ++k) acc ^= rng();
      out[i] = acc;
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelFor, ResolveJobsClampsToTaskCountAndHardware) {
  EXPECT_EQ(resolve_jobs(8, 3), 3u);
  EXPECT_EQ(resolve_jobs(2, 100), 2u);
  EXPECT_GE(resolve_jobs(0, 100), 1u);  // 0 = hardware concurrency
  EXPECT_EQ(resolve_jobs(5, 0), 1u);
  EXPECT_EQ(resolve_jobs(1, 1), 1u);
}

TEST(ParallelFor, JobsExceedingTasksStillRunsAll) {
  std::vector<std::atomic<int>> counts(3);
  parallel_for(16, 3, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(counts[i].load(), 1);
}

}  // namespace
